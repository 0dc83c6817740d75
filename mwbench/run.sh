#!/usr/bin/env bash
# Builds mwbench and the maxwarp binary from this checkout, then runs one
# benchmark workload:
#
#   bash mwbench/run.sh --workload serve-mix --seed 1 --seconds 50 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build/mwbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-mod=mod -buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

cd "$root/mwbench"
go build -o "$build/mwbench" . >&2
go build -o "$build/maxwarp" maxwarp/cmd/maxwarp >&2
cd "$root"
exec "$build/mwbench" -maxwarp "$build/maxwarp" -workdir "$build" "$@"
