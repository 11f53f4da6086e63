#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, and the benchmark's trace and
# determinism files all stay in $CARGO_TARGET_DIR (default .bench_build)
# under the working directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/main.go ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" -out "$out" "$@"
