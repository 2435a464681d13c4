#!/usr/bin/env bash
# BENCHMARK.json's command. Builds lokibench from the sources of the checkout
# it is started in and runs it with the arguments given. Everything this
# writes (the Go build cache, the binary, the harness's work directory) stays
# under .bench_build/ in that checkout.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
go build -C "$(dirname "$0")" -o "$build/lokibench.bin" .
exec "$build/lokibench.bin" "$@"
