#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper_pipeline --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh steady setA.jsonl setB.jsonl
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, scratch inputs and
# span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"

# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
# counters) inside the checkout too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
export CGO_ENABLED=0

# The module replaces tireplay with the checkout's root, so a directory
# without the program's sources fails here, before any result is printed.
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
