#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program from
# source into <checkout>/.bench_build (build cache included, so nothing
# is written outside the checkout) and runs it from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/p4allbench" .)
cd "$root"
exec "$out/p4allbench" "$@"
