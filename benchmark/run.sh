#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds this package from source (offline, release profile) and runs one
# workload in one fresh process. `--trace 1` runs the `trace` binary,
# which needs `bench` beside it for input generation; `--trace 0` builds
# and runs `bench` alone, so a break in a probed internal API cannot
# break the gate.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=bench
prev=
for arg in "$@"; do
  if [[ $prev == --trace && $arg == 1 ]]; then bin=trace; fi
  prev=$arg
done
bins=(--bin bench)
if [[ $bin == trace ]]; then bins+=(--bin trace); fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "${bins[@]}" >&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/$bin" --out "$here/out" "$@"
