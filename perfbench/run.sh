#!/usr/bin/env bash
# Builds pqserve and the benchmark from the source tree rooted at the
# current directory, then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
go build -o "$out/pqserve" ./cmd/pqserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -pqserve "$out/pqserve" -work "$out" "$@"
