#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload r1_quick --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs (binary, Go build cache) go to
# $CARGO_TARGET_DIR, default .bench_build, so nothing is written outside the
# checkout. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
