#!/usr/bin/env bash
# Non-test lines under crates/*/src, per crate and in total. A file's
# non-test lines are the lines before its first column-0 `#[cfg(test)]`
# (all of them when it has none), so inline test modules at the end of a
# file do not count. Run from anywhere: `scripts/nontest-lines.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate); done = 0 }
    /^#\[cfg\(test\)\]/ { done = 1 }
    !done { lines[crate]++; total++ }
    END {
        n = 0
        for (c in lines) names[++n] = c
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && names[j - 1] > names[j]; j--) {
                t = names[j]; names[j] = names[j - 1]; names[j - 1] = t
            }
        for (i = 1; i <= n; i++) printf "%-10s %6d\n", names[i], lines[names[i]]
        printf "%-10s %6d\n", "total", total
    }'
