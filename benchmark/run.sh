#!/usr/bin/env bash
# Build once, then run every workload through both passes: the untraced
# end-to-end pass, then the traced pass with the observed pass and the layer
# drivers behind it. Prints every metric by name with unit and direction,
# leaves the spans in benchmark/out/<workload>.trace.jsonl and the results
# document in benchmark/out/results.json, and exits non-zero if an oracle
# fails. Extra arguments go to `all` (--seed N, --seconds S).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/fragdb-benchmark" all "$@"
