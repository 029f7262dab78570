#!/usr/bin/env bash
# Builds the end-to-end training benchmark from source and runs one
# workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload dp-large --seed 1 --seconds 45 --trace 0
#
# The binary and the Go build cache live in .bench_build under the
# current directory, so repeated runs rebuild nothing.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
