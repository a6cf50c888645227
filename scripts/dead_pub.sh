#!/bin/sh
# Public functions that only tests call: every `pub fn` name under
# crates/*/src and src/ that no identifier in the non-test code of
# crates/*/src, src/, examples/ or benchmark/ (its own workspace, which
# compiles against the library) names. Tests are crates/testutil (a
# dev-dependency, test code throughout) and what loc.sh leaves out:
# a file's `#[cfg(test)] mod` and everything after it, and any other
# `#[cfg(test)]` item. A `pub use` re-export, a comment and the
# function's own `fn name` do not count as a use.
#
#   scripts/dead_pub.sh        one `file: name` line per hit
#   scripts/dead_pub.sh DIR    the same for another checkout
#
# Names are matched as bare words, so a method that shares its name
# with any other called item is never a hit: the scan can miss dead
# methods, not report live functions.
set -eu
cd "${1:-$(dirname "$0")/..}"

find crates/*/src src examples benchmark \( -path benchmark/target -o -path crates/testutil/src \) -prune -o -name '*.rs' -print \
    | sort | xargs awk '
    FNR == 1 { counting = 1; item = 0; depth = 0; opened = 0; reexport = 0 }
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
    !counting { next }
    /^[[:space:]]*#\[cfg\(test\)\]/ { item = 1; next }
    { sub(/\/\/.*/, "") }
    reexport { if ($0 ~ /;/) reexport = 0; next }
    /^[[:space:]]*pub(\([^)]*\))?[[:space:]]+use[[:space:]]/ { if ($0 !~ /;/) reexport = 1; next }
    FILENAME ~ /^(crates\/[^\/]*\/src|src)\// && match($0, /pub[[:space:]]+(const[[:space:]]+|unsafe[[:space:]]+)*fn[[:space:]]+[A-Za-z_0-9]+/) {
        name = substr($0, RSTART, RLENGTH)
        sub(/.*[[:space:]]/, "", name)
        if (!(name in defined)) defined[name] = FILENAME
    }
    {
        gsub(/fn[[:space:]]+[A-Za-z_0-9]+/, "fn")
        n = split($0, words, /[^A-Za-z_0-9]+/)
        for (i = 1; i <= n; i++) used[words[i]]++
    }
    END {
        for (name in defined) if (!(name in used)) printf "%s: %s\n", defined[name], name | "sort"
    }'
