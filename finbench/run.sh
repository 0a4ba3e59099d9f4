#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash finbench/run.sh --workload flow-default --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files, the go command's own state (HOME and
# XDG_CONFIG_HOME, where it keeps telemetry counters), the binary and each
# run's scratch directory all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C finbench build -o "$out/finbench" .
exec "$out/finbench" "$@"
