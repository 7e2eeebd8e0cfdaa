#!/usr/bin/env bash
# Builds the release `faultline` binary and the benchmark from source,
# then runs one benchmark workload. Arguments pass through:
#   bash perfbench/run.sh --workload <optimize|serve-hot|serve-cold> \
#        --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's progress goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin faultline
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --faultline "$CARGO_TARGET_DIR/release/faultline" "$@"
