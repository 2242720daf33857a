#!/usr/bin/env bash
# The virtual-metric gate of a refactor: run the benchmark of record's four
# workloads at one seed (`--seconds 0`: three repetitions each, about 40 s) and
# compare what the simulated database did — verdict, counts, lag, messages per
# commit, served fraction — with the seed's golden, taken from the parent's
# binary. Host timings are not compared. A change that means to move one of
# these regenerates the goldens with its own binary and says so.
#
# Usage: bench_virtual.sh [SEED]   (default 42: bench_virtual.golden;
#                                   any other: bench_virtual_SEED.golden)
set -euo pipefail
seed="${1:-42}"
dir="$(cd "$(dirname "$0")" && pwd)"
golden="$dir/bench_virtual.golden"
[ "$seed" = 42 ] || golden="$dir/bench_virtual_$seed.golden"
keys='correct|attempted|failed|lag_p50_us|lag_p99_us|msgs_per_commit|served_frac'
for w in wide-mesh dense-few rf3-wide chaos-observed; do
    cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- --workload "$w" --seed "$seed" --seconds 0 --trace 0 |
        sed -n '$p' | grep -oE "\"($keys)\": (\{\"value\": )?[a-z0-9.]+" | sed -e 's/{"value": //' -e "s/^/$w /"
done | diff "$golden" -
