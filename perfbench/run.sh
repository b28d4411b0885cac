#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed through (see perfbench/README.md). Run it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload loopback-64b --seed 1 --seconds 10 --trace 0
#
# The build cache and the binary live in $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, and the Go toolchain is never
# downloaded: a missing toolchain or missing sources fail the build, and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -outdir "$out/perfbench-out" "$@"
