#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs write stays under .bench_build/ at
# the repository root: the Go build cache, the binary, and the run
# reports. The build resolves the simulator through the module's
# `replace msgroofline => ../`, so it fails (and no result is printed)
# when the benchmark directory is copied out of the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$root/.bench_build/go/cache"
export GOPATH="$root/.bench_build/go/path"
export GOMODCACHE="$GOPATH/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -out "$out" "$@"
