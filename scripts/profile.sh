#!/usr/bin/env bash
# Sampling CPU profile of one benchmark workload. Report only: no gate
# reads it.
#
#   scripts/profile.sh <workload> [seed (42)] [reps (8)] [id (1)]
#
# Builds the benchmark with frame pointers and line tables into
# target/profile/build, runs `rep --workload W --seed S --mode timed --id I`
# REPS times under scripts/profile-sampler.c (LD_PRELOAD, ITIMER_PROF on its
# own process), and prints each function's self share (samples whose
# interrupted PC is in it, grouped by innermost inlined function) and
# inclusive share (samples with it anywhere on the stack). The repetition
# id defaults to 1 because only id 0 takes `chaos-observed`'s
# serializability verdict (about 1.2 s at seeds 42 and 7, excluded from
# `wall_s`), which would otherwise be most of that workload's profile;
# pass 0 to profile the verdict itself. Samples arrive at the kernel's
# timer tick, a few hundred per second, so take at least 8 repetitions.
# Code built without frame pointers (libc, perhaps the prebuilt standard
# library) can cut a stack short; its self samples still count. Needs cc,
# addr2line and python3; changes nothing outside target/profile.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { echo "usage: $0 <workload> [seed] [reps] [id]" >&2; exit 2; }
workload=$1 seed=${2:-42} reps=${3:-8} id=${4:-1}
. scripts/profile-lib.sh
preload_build scripts/profile-sampler.c
preload_run "$workload" "$seed" "$reps" "$id"
python3 scripts/stacks.py cpu "$bin" "$out/runs" "$workload"
