#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate in release
# (offline; the repo's .cargo/config.toml supplies +avx2,+fma when run from
# the repo root), then hands every argument to the binary, which pins the
# environment itself — see `benchmark/README.md` or `run.sh --help` for the
# modes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Recorded in the result set; neither is available inside the binary.
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_SHA

target="${CARGO_TARGET_DIR:-benchmark/target}"
# cargo's progress goes to stderr; stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/dlsr-benchmark" "$@"
