#!/usr/bin/env bash
# The virtual-metric gate of a refactor: run the benchmark of record's four
# workloads at seed 42 (`--seconds 0`: three repetitions each, about 40 s) and
# compare what the simulated database did — verdict, counts, lag, messages per
# commit, served fraction — with bench_virtual.golden, taken from the parent's
# binary. Host timings are not compared. A change that means to move one of
# these regenerates the golden with its own binary and says so.
set -euo pipefail
golden="$(cd "$(dirname "$0")" && pwd)/bench_virtual.golden"
keys='correct|attempted|failed|lag_p50_us|lag_p99_us|msgs_per_commit|served_frac'
for w in wide-mesh dense-few rf3-wide chaos-observed; do
    cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- --workload "$w" --seed 42 --seconds 0 --trace 0 |
        sed -n '$p' | grep -oE "\"($keys)\": (\{\"value\": )?[a-z0-9.]+" | sed -e 's/{"value": //' -e "s/^/$w /"
done | diff "$golden" -
