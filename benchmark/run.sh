#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the daemon under test (the
# root package's release `commsched` binary) and the benchmark package,
# then hands every argument to the harness:
#
#   benchmark/run.sh [--seed S] [--only W] [--smoke] [--repeat K] [--out DIR]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Compile time is not part of any metric (setup_s starts at the spawn of
# the daemon). With CARGO_TARGET_DIR set both builds share that
# directory; without it they use target/ and benchmark/target/.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --bin commsched
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/commsched-benchmark" \
    --daemon "${CARGO_TARGET_DIR:-target}/release/commsched" "$@"
