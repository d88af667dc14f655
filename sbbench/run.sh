#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash sbbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Build products, the Go build cache, the compiler's temporary files and
# the go command's configuration directory (where it keeps telemetry
# counters) stay under .bench_build/ at the repository root. Build output goes to
# standard error, so the benchmark's JSON result stays the last line of
# standard output.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/sbbench" && go build -o "$build/sbbench" .) >&2
exec "$build/sbbench" "$@"
