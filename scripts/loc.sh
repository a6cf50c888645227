#!/bin/sh
# Non-test Rust lines, per crate and in total: for every *.rs under
# crates/*/src and src/, the lines before the file's first #[cfg(test)]
# (a file without one counts whole). This is the number the
# [simplicity] PRs quote as "net non-test Rust lines".
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
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
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
