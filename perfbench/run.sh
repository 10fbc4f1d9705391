#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload large-ref --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and result files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

# The commit is recorded with every result; outside a git checkout of
# this repository it reads "unknown".
commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit=$commit+modified
fi

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-results" "$@"
