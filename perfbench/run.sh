#!/usr/bin/env bash
# Builds the benchmark and iqserver from the sources of the checkout it is
# run from, then runs one workload:
#
#   bash perfbench/run.sh --workload loop-in --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands in
# .bench_build/ there: the Go build cache, temporary files, the binaries,
# server data and logs, and the span files of traced runs.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"

export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export TMPDIR="$root/.bench_build/tmp" GOTMPDIR="$root/.bench_build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$out" "$TMPDIR"

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/iqserver" iq/cmd/iqserver) >&2
exec "$out/perfbench" --server-bin "$out/iqserver" --work-dir "$out" "$@"
