#!/usr/bin/env bash
# Heap allocations of one benchmark workload's loop, per call site. Report
# only: no gate reads it.
#
#   scripts/alloc-sites.sh <workload> [seed (42)] [reps (1)]
#
# Builds the benchmark as scripts/profile.sh does, runs
# `rep --workload W --seed S --mode timed --id 1` REPS times under
# scripts/alloc-interposer.c (LD_PRELOAD: every malloc, calloc, realloc and
# posix_memalign is counted under its frame-pointer stack), and prints the
# allocations made under `System::step_until` per repetition, each at its
# call site: the innermost frame outside the standard library. The counts
# are exact and repeat run to run, so one repetition is enough. The
# repetition id is 1 because only id 0 takes `chaos-observed`'s
# serializability verdict (about 1.2 s at seeds 42 and 7, after the
# loop), which each repetition would otherwise pay for. Needs cc,
# addr2line and python3; changes nothing outside target/profile.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { echo "usage: $0 <workload> [seed] [reps]" >&2; exit 2; }
workload=$1 seed=${2:-42} reps=${3:-1}
. scripts/profile-lib.sh
preload_build scripts/alloc-interposer.c
preload_run "$workload" "$seed" "$reps"
python3 scripts/stacks.py sites "$bin" "$out/runs" "$workload"
