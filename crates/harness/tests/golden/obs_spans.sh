#!/usr/bin/env bash
# The span-reconstruction gate: `fragdb-trace spans` and `critical-path` on
# the seed-42 `unrestricted-faults --quick` export must print exactly
# obs_spans.golden, so reconstruction drift fails instead of passing
# silently. A change that means to move a span regenerates the golden with
# its own binary and says so.
set -euo pipefail
golden="$(cd "$(dirname "$0")" && pwd)/obs_spans.golden"
export_file="$(mktemp)"
trap 'rm -f "$export_file"' EXIT
trace() { cargo run --release -q -p fragdb-harness --bin fragdb-trace -- "$@"; }
trace --scenario unrestricted-faults --quick --seed 42 --out "$export_file" > /dev/null
{ trace spans "$export_file"; trace critical-path "$export_file"; } | diff "$golden" -
