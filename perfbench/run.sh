#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload distributed --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/
# in the repository root, the Go build cache included.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the Go command's caches, temporary files, config and telemetry
# inside $out, and keep it off the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOFLAGS="" GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go telemetry off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
