#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/modcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's own configuration and telemetry live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
# go build rewrites the binary on every run; flush it now so its writeback
# does not land on the fsyncs that durable_cycle measures.
sync "$build/perfbench"
exec "$build/perfbench" "$@"
