#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload self-dblp --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and temporary file stays under .bench_build/
# in the repository root. Build messages go to standard error, so the
# benchmark's result stays the last line of standard output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# HOME and XDG_CONFIG_HOME keep the go command's own state (telemetry
# counters) inside the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
