#!/usr/bin/env bash
# The model-checker gate of a refactor: `fragdb-mc --quick` (11 shrunk
# instances, 8 witnesses, a verdict; about 15 s) must print exactly
# mc_quick.golden, taken from the parent's binary. A change that means to move
# a count regenerates the golden with its own binary and says so.
set -euo pipefail
golden="$(cd "$(dirname "$0")" && pwd)/mc_quick.golden"
cargo run --release -q -p fragdb-mc -- --quick | diff "$golden" -
