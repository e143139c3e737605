#!/usr/bin/env bash
# Builds (if needed) and runs the end-to-end benchmark; every argument goes
# to the benchmark. From the repository root:
#
#   bash e2ebench/bench.sh --workload scan_cold --seed 1 --seconds 25 --trace 0
#
# The benchmark's path dependencies lie outside its own workspace, so the
# checkout's absolute path reaches the binary twice: in panic messages,
# whose length moves all the code, and in the crates' symbol hashes, which
# order the functions. Two builds of one commit in differently named
# directories placed `.text` 416 bytes apart, and one parsed the
# training-set JSON 1.5x slower than the other. So the build remaps the
# checkout's path to `.` and starts every function on a 64-byte boundary;
# then where a function lands no longer changes how its loops sit in cache
# lines, and runs from two checkouts of one commit compare.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
CARGO_ENCODED_RUSTFLAGS="--remap-path-prefix=$root=."$'\x1f'"-Cllvm-args=-align-all-functions=6"
export CARGO_ENCODED_RUSTFLAGS
exec cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- "$@"
