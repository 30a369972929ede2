#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through:
#
#   bash crnperf/run.sh --workload dba-batch --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  The build, its caches and everything
# the run writes stay under .bench_build/ in that directory, and the Go
# toolchain is kept offline.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off

(cd "$root/crnperf" && go build -trimpath -o "$out/crnperf" .) >&2
cd "$root"
exec "$out/crnperf" --work "$out/work" "$@"
