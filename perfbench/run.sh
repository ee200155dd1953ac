#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload forward --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the binary,
# and the traced run's span logs.
set -euo pipefail

cd "$(dirname "$0")/.."
# The Go toolchain's standard install location, for a PATH without it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOENV=off
export CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -trace-dir "$out/perfbench-trace" "$@"
