#!/usr/bin/env bash
# Compare the backend benchmarks against the intentional baseline, or
# refresh it.
#
#   scripts/bench_baseline.sh           # run + compare against baseline
#   scripts/bench_baseline.sh update    # run + overwrite the baseline
#   COUNT=10 scripts/bench_baseline.sh  # more repetitions (benchstat power)
#
# The baseline (internal/bench/testdata/baseline.txt) is updated
# intentionally — never by CI — so benchstat diffs against it show the
# cumulative drift of the backends (BackendSimulated vs BackendNative
# vs BackendIncremental), of the graph loaders (sequential text vs
# parallel text vs binary), and of the streaming replay paths
# (columnar BenchmarkIngestSpan vs boxed BenchmarkIngestPairs, both
# through pramcc.Service, the engine-level BenchmarkEngineIngestSpan,
# and the fully
# instrumented BenchmarkIngestSpanInstrumented — the JSON-event-sink
# worst case, whose delta against BenchmarkIngestSpan is the whole
# cost of observability), and of the durability layer (BenchmarkWALAppend,
# the fsync-dominated per-batch ack; BenchmarkRecover, the warm-start
# scan), and of the sharded multi-tenant router (BenchmarkRouterIngest,
# the eight-tenant hot path; BenchmarkCoalesce, span coalescing off vs
# on under queued load — the E16 claim) since the last deliberate
# refresh. Comparison uses benchstat when installed
# (go install golang.org/x/perf/cmd/benchstat@latest) and falls back to
# printing both result sets side by side when not.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
BENCH="${BENCH:-BenchmarkComponentsBackends|BenchmarkSolverReuse|BenchmarkNative|BenchmarkIncremental|BenchmarkIngest|BenchmarkEngineIngest|BenchmarkLoad|BenchmarkWriteBinary|BenchmarkWALAppend|BenchmarkRecover|BenchmarkRouterIngest|BenchmarkCoalesce}"
BASELINE=internal/bench/testdata/baseline.txt
CURRENT="$(mktemp /tmp/bench_current.XXXXXX.txt)"
trap 'rm -f "$CURRENT"' EXIT

echo ">> go test -run '^$' -bench '$BENCH' -count $COUNT (., ./internal/forest, ./internal/durable, ./graph)"
go test -run '^$' -bench "$BENCH" -count "$COUNT" . ./internal/forest ./internal/durable ./graph | tee "$CURRENT"

if [ "${1:-}" = "update" ]; then
    mkdir -p "$(dirname "$BASELINE")"
    cp "$CURRENT" "$BASELINE"
    echo ">> baseline refreshed: $BASELINE"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo ">> no baseline at $BASELINE; run 'scripts/bench_baseline.sh update' to create it" >&2
    exit 1
fi

echo
if command -v benchstat >/dev/null 2>&1; then
    echo ">> benchstat baseline vs current"
    benchstat "$BASELINE" "$CURRENT"
else
    echo ">> benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest)"
    echo ">> baseline ($BASELINE):"
    grep '^Benchmark' "$BASELINE" || true
    echo ">> current:"
    grep '^Benchmark' "$CURRENT" || true
fi
