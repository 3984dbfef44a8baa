#!/usr/bin/env bash
# Build (if stale) and run grasp-benchmark from a checkout of the repository.
#
#   bash crates/bench/src/bin/grasp-benchmark/run.sh --workload proc-stream --seed 7 --seconds 10 --trace 0
#
# A thin wrapper over the workspace build: the benchmark is a binary of
# `grasp-bench`, so this builds exactly what `cargo build --release` builds —
# one binary, `<target>/release/grasp-benchmark` — plus the two worker
# binaries the proc and net backends look for next to it.  Nothing is printed
# on stdout but the benchmark's own output; a failed build is a non-zero exit
# with no result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --package grasp-bench --package grasp \
    --bin grasp-benchmark --bin grasp-proc-worker --bin grasp-net-worker

exec "$target/release/grasp-benchmark" "$@"
