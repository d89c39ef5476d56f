#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the checkout root (build cache included, so
# nothing is written outside the checkout) and runs it from that root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
(cd "$here" && go build -o "$root/.bench_build/continuum-benchmark" .)
cd "$root"
exec "$root/.bench_build/continuum-benchmark" "$@"
