#!/usr/bin/env bash
# Builds the benchmark harness in release mode and runs one workload:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); traces and reports go under it too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2
exec "$target/release/fedsz-perfbench" --scratch "$target/perfbench" "$@"
