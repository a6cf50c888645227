#!/bin/sh
# Non-test Rust lines, per crate and in total: for every *.rs under
# crates/*/src and src/, the lines before the file's first
# `#[cfg(test)] mod` (a file without one counts whole), less the
# test-only items above it: a `#[cfg(test)]` line and the item under
# it, a `use …;` or any item up to its closing brace (or its `;`, if
# it opens none). This is the number the [simplicity] PRs quote as
# "net non-test Rust lines".
#
#   scripts/loc.sh            per-crate table + total
#   scripts/loc.sh -f         also one line per file
#   scripts/loc.sh [-f] DIR   the same for another checkout of the repo
#
# POSIX sh + find + sort + awk; no other dependencies.
set -eu

files=0
if [ "${1:-}" = "-f" ]; then
    files=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

find crates/*/src src -name '*.rs' | sort | xargs awk -v files="$files" '
    FNR == 1 { counting = 1; item = 0; depth = 0; opened = 0 }
    # The line after a #[cfg(test)]: the tests module ends the count,
    # anything else starts a test-only item to skip.
    item == 1 {
        if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { counting = 0; item = 0 }
        else item = 2
    }
    item == 2 {
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if ($0 ~ /\{/) opened = 1
        if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) {
            item = 0; depth = 0; opened = 0
        }
        next
    }
    counting && /^[[:space:]]*#\[cfg\(test\)\]/ { item = 1; next }
    counting {
        per_file[FILENAME]++
        crate = FILENAME
        if (crate ~ /^crates\//) sub(/\/src\/.*/, "", crate); else crate = "src"
        per_crate[crate]++
        total++
    }
    END {
        if (files) {
            for (f in per_file) printf "%7d  %s\n", per_file[f], f | "sort -k2"
            close("sort -k2")
            print ""
        }
        for (c in per_crate) printf "%7d  %s\n", per_crate[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
