#!/usr/bin/env bash
# Builds the benchmark and the prestored daemon from this checkout's
# sources, then runs one benchmark invocation. Run from the repository
# root; every argument is passed to perfbench:
#
#   bash perfbench/run.sh --workload kv-pmem --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$root/perfbench"
# VCS stamping gives the fingerprint its revision; a checkout whose VCS
# state cannot be read builds without it.
for target in "perfbench ." "prestored prestores/cmd/prestored"; do
	name=${target%% *} pkg=${target#* }
	go build -o "$build/$name" "$pkg" 2>/dev/null || go build -buildvcs=false -o "$build/$name" "$pkg"
done
cd "$root"
exec "$build/perfbench" --prestored "$build/prestored" "$@"
