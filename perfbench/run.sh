#!/usr/bin/env bash
# Builds the benchmark and the mmrnet daemon from this checkout's sources
# and runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-fig5 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run records stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bin/mmrnet" ./cmd/mmrnet
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -mmrnet "$out/bin/mmrnet" -out "$out/perfbench" -spec BENCHMARK.json "$@"
