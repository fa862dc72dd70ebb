#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
# Usage (from the repository root):
#
#	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# Every build artifact and Go cache lives under .bench_build/ in the
# checkout ($CARGO_TARGET_DIR names it when set), so nothing is written
# outside the checkout. The build needs the repository's own go.mod one
# level up; without it the script fails before printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in the
# checkout too. The module needs nothing but the repository itself, so
# GOPROXY=off: a broken checkout fails the build instead of fetching.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off \
	GOPROXY=off
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .) >&2
export PERFBENCH_WORKDIR="$out"
exec "$out/perfbench" "$@"
