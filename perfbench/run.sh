#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Every build and run artifact stays under .bench_build, and no
# module download is ever attempted: the benchmark imports only the
# parent module (through the replace directive) and the standard library.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
