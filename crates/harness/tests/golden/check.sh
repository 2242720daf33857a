#!/usr/bin/env bash
# The byte-identity gate of a refactor: regenerate `fragdb-exp eN S` stdout for
# e1…e12 at seeds 42 and 7 (24 runs, about 30 s) and compare with
# exp_stdout.sha256. A change that means to alter an experiment's output
# regenerates that file with its own binary and says so.
#
# EXPERIMENTS.md quotes the seed-42 stdout of every experiment, one fenced
# block each under "Full measured outputs"; each block must match the fresh
# run too (trailing blank lines aside), so the document cannot drift.
set -euo pipefail
golden="$(cd "$(dirname "$0")" && pwd)"
doc="$golden/../../../../EXPERIMENTS.md"
out="$(mktemp -d)"
for seed in 42 7; do for e in $(seq 1 12); do
    cargo run --release -q -p fragdb-harness --bin fragdb-exp -- "e$e" "$seed" >"$out/e${e}_$seed.txt"
done; done
(cd "$out" && sha256sum -c "$golden/exp_stdout.sha256")

# Split the section into one file per block, named by its first word (`E3`).
awk -v out="$out" '
    /^## / { section = ($0 ~ /^## Full measured outputs/); next }
    !section { next }
    /^```/ { inblock = !inblock; file = ""; next }
    inblock && file == "" { file = out "/doc_" tolower($1) "_42.txt" }
    inblock { print > file }
' "$doc"
quoted=0
for e in $(seq 1 12); do
    block="$out/doc_e${e}_42.txt"
    [ -f "$block" ] || continue
    quoted=$((quoted + 1))
    if ! diff <(printf '%s\n' "$(cat "$block")") <(printf '%s\n' "$(cat "$out/e${e}_42.txt")"); then
        echo "EXPERIMENTS.md: the E$e block differs from \`fragdb-exp e$e 42\`" >&2
        exit 1
    fi
done
if [ "$quoted" -ne 12 ]; then
    echo "EXPERIMENTS.md quotes $quoted of the 12 experiments" >&2
    exit 1
fi
echo "EXPERIMENTS.md: 12 blocks match"
