#!/usr/bin/env bash
# Builds the benchmark from the repository sources and runs it.
#
# Usage, from the repository root:
#
#	bash evbench/run.sh --workload corpus-fresh --seed 1 --seconds 45 --trace 0
#
# Every build product, the Go build cache and the benchmark's artifacts stay
# under .bench_build/ in the current directory. The build runs in the
# background so that SIGINT/SIGTERM stop it too; the benchmark then replaces
# this shell, so it receives signals directly and leaves no process behind.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

bin="$out/evbench.bin"
(cd "$root/evbench" && exec go build -trimpath -o "$bin" .) &
build=$!
trap 'kill -TERM "$build" 2>/dev/null || true; wait "$build" || true; exit 143' TERM INT
wait "$build"
trap - TERM INT

exec "$bin" --root "$root" --out "$out/evbench" "$@"
