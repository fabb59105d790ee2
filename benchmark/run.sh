#!/usr/bin/env bash
# Build the benchmark from source and run it. The benchmark driver calls
#   bash benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
# from the root of a checkout; by hand, no arguments runs every workload
# (see README.md: --seed, --trace, --smoke, --repeat).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Run from the checkout's root: the benchmark writes under benchmark/out,
# and a relative CARGO_TARGET_DIR (the driver's .bench_build) lands there.
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr; stdout belongs to the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/uindex-benchmark" "$@"
