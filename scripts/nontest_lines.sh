#!/bin/sh
# Non-test line count of the workspace crates (ROADMAP item 9's rule):
# for each crates/*/src/**/*.rs, the lines above the first `mod` item
# (inline or a file of its own) that a `#[cfg(test)]` line opens, that
# attribute line included; the whole file when it has none. The file
# `db/mutation_tests.rs` is such a test `mod` and is left out.
#
# Usage: scripts/nontest_lines.sh [repo root]   (prints one number)
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' ! -path '*/db/mutation_tests.rs' | sort | xargs awk '
    function close_file() { total += cut ? cut : lines }
    FNR == 1 { if (NR > 1) close_file(); cut = 0; attr = 0 }
    { lines = FNR }
    cut { next }
    attr && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { cut = FNR - 1; next }
    { attr = /^[[:space:]]*#\[cfg\(test\)\]/ }
    END { close_file(); print total }
'
