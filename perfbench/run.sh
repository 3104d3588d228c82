#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload engine-bulk --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seconds 5
#
# The binary, the Go build cache and the traced-run files stay inside
# the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -eu
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
