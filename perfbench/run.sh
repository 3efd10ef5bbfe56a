#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload cell16 --seed 1 --seconds 25 --trace 0
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the working directory; nothing is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/cache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
# Flush what the build wrote, so its writeback does not land inside the
# measured passes (it slowed file creation in the campaign set-up).
sync
exec "$build/perfbench" "$@"
