#!/usr/bin/env bash
# Builds qbcloud, qbring and the benchmark from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash qbperf/run.sh --workload point-read --seed 1 --seconds 24 --trace 0
#
# Build outputs, the Go build cache and server state stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The benchmark module needs nothing outside the checkout: no proxy, no
# toolchain download.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "$root/qbperf"
go build -o "$out/bin/qbcloud" repro/cmd/qbcloud
go build -o "$out/bin/qbring" repro/cmd/qbring
go build -o "$out/bin/qbperf" .
cd "$root"
exec "$out/bin/qbperf" -bin "$out/bin" -work "$out/run" "$@"
