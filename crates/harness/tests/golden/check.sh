#!/usr/bin/env bash
# The byte-identity gate of a refactor: regenerate `fragdb-exp eN S` stdout for
# e1…e12 at seeds 42 and 7 (24 runs, about 30 s) and compare with
# exp_stdout.sha256. A change that means to alter an experiment's output
# regenerates that file with its own binary and says so.
set -euo pipefail
golden="$(cd "$(dirname "$0")" && pwd)"
out="$(mktemp -d)"
for seed in 42 7; do for e in $(seq 1 12); do
    cargo run --release -q -p fragdb-harness --bin fragdb-exp -- "e$e" "$seed" >"$out/e${e}_$seed.txt"
done; done
cd "$out" && sha256sum -c "$golden/exp_stdout.sha256"
