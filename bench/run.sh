#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument on. Run it from the repository root:
#
#   bash bench/run.sh --workload avf-micro --seed 2021 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, temporary stores) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the root of a vulnstack checkout (go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$out/config
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$root/bench" build -o "$out/vulnbench" .
exec "$out/vulnbench" -scratch "$out" "$@"
