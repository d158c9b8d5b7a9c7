#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, from the repository root.
#
#   bash bench/run.sh --workload sim-congested --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The build and the run write only under .bench_build/ and never reach
# the network: the toolchain's caches live there, and no module or
# toolchain is downloaded (the benchmark needs nothing outside the
# standard library and this repository). GOWORK=off keeps a workspace
# file outside the checkout from changing what gets built.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
