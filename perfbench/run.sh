#!/usr/bin/env bash
# Builds the benchmark harness and sqlcheckd from the checkout this
# script sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 24 --trace 0
#
# Everything the build and the runs leave behind goes under
# .bench_build/ at the checkout root: the Go build cache, and the Go
# configuration and telemetry directories, which the XDG variables move
# there, so the benchmark writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
cd "$root"
go build -trimpath -o "$out/sqlcheckd" ./cmd/sqlcheckd >&2
(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -daemon "$out/sqlcheckd" -work "$out" "$@"
