#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs one workload.
# Run from the root of the repository:
#
#   bash perfbench/run.sh --workload sim_batch --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run's scratch state all stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
