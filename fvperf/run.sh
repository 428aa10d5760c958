#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash fvperf/run.sh --workload sat64 --seed 1 --seconds 45 --trace 0
#
# The Go build cache, the binary and the traced runs' span files stay
# under fvperf/ (see .gitignore). Nothing is downloaded: the benchmark
# module depends only on the repository's own module.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export GOCACHE="$here/.cache/go-build"
export GOMODCACHE="$here/.cache/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$here" build -o .bin/fvperf .
exec "$here/.bin/fvperf" --trace-dir "$here/.out" "$@"
