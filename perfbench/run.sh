#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload steady-batch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary, and the
# span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
