#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   bash perf/run.sh -seed 1                 # all four workloads
#   bash perf/run.sh -seed 1 -trace          # per-layer metrics
#   bash perf/run.sh -seed 1 -sets 2         # repeatability check
#   bash perf/run.sh --workload stream-ingest --seed 2 --seconds 20 --trace 0
#
# perf is a Go module of its own that builds against the repository's
# module one directory up. The Go build cache, its temporary files and
# the go command's telemetry files stay under perf/.build, and GOENV=off
# skips the user's go env file, so a run reads no user Go settings and
# writes nothing outside the checkout; GOPROXY=off and GOTOOLCHAIN=local
# keep the build off the network. Without the
# repository's module next to perf/, the build fails and the script
# exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/perf/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local
(cd perf && go build -o "$build/perf" .)
exec "$build/perf" "$@"
