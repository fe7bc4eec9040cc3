package pramcc_test

// Benchmark entry points. One Benchmark per experiment E1–E12 (the
// per-experiment index is EXPERIMENTS.md; cmd/ccbench prints the same
// tables standalone), plus wall-clock benchmarks of the public API.
//
// This file lives in the external test package so that internal/bench
// (which imports the root package to enumerate the backend registry)
// can be imported here without a cycle.
//
// The experiment benches report model metrics (rounds, space ratios)
// via b.ReportMetric in addition to wall-clock time; run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the interpreted results.

import (
	"context"
	"io"
	"testing"

	pramcc "repro"
	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pram"
)

// runExperiment executes one registered experiment at Quick scale.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for _, e := range bench.All() {
		if e.ID != id {
			continue
		}
		for i := 0; i < b.N; i++ {
			tbl := e.Run(bench.Quick)
			if len(tbl.Rows) == 0 {
				b.Fatalf("%s produced no rows", id)
			}
			if i == 0 && testing.Verbose() {
				tbl.Fprint(benchWriter{b})
			}
		}
		return
	}
	b.Fatalf("unknown experiment %s", id)
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = benchWriter{}

func BenchmarkE1RoundsVsDiameter(b *testing.B)   { runExperiment(b, "E1") }
func BenchmarkE2RoundsVsDensity(b *testing.B)    { runExperiment(b, "E2") }
func BenchmarkE3RoundsVsN(b *testing.B)          { runExperiment(b, "E3") }
func BenchmarkE4SpaceLinear(b *testing.B)        { runExperiment(b, "E4") }
func BenchmarkE5MaxLevel(b *testing.B)           { runExperiment(b, "E5") }
func BenchmarkE6LevelUpProb(b *testing.B)        { runExperiment(b, "E6") }
func BenchmarkE7SuccessProbability(b *testing.B) { runExperiment(b, "E7") }
func BenchmarkE8SpanningForest(b *testing.B)     { runExperiment(b, "E8") }
func BenchmarkE9Baselines(b *testing.B)          { runExperiment(b, "E9") }
func BenchmarkE10Ablations(b *testing.B)         { runExperiment(b, "E10") }
func BenchmarkE11Backends(b *testing.B)          { runExperiment(b, "E11") }
func BenchmarkE12Incremental(b *testing.B)       { runExperiment(b, "E12") }

// ---- wall-clock benchmarks of the public entry points ----

func benchGraph() *graph.Graph {
	return graph.Gnm(100000, 400000, 42)
}

// BenchmarkComponentsBackends is the benchstat anchor compared by
// scripts/bench_baseline.sh against the intentional baseline in
// internal/bench/testdata/baseline.txt: the same workload through the
// Components entry point on every registered backend. Each call is a
// one-shot Solver, so this measures a whole solve including engine and
// worker-pool construction; BenchmarkSolverReuse is the steady state.
func BenchmarkComponentsBackends(b *testing.B) {
	g := benchGraph()
	for _, bk := range pramcc.Backends() {
		b.Run(bk.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pramcc.Components(g, pramcc.WithSeed(1), pramcc.WithBackend(bk)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverReuse is the steady-state of the long-lived API:
// one Solver per backend, the same workload solved repeatedly. The
// acceptance bar (enforced by TestSolverSolveZeroAllocNative) is zero
// allocations per op on the native backend — labels, scratch, worker
// pool, and the Result itself are all reused.
func BenchmarkSolverReuse(b *testing.B) {
	g := benchGraph()
	ctx := context.Background()
	for _, bk := range pramcc.Backends() {
		b.Run(bk.String(), func(b *testing.B) {
			s, err := pramcc.NewSolver(pramcc.WithBackend(bk), pramcc.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Solve(ctx, g); err != nil { // warm the buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(ctx, g)
				if err != nil {
					b.Fatal(err)
				}
				if res.NumComponents == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// BenchmarkIncrementalBatches is the streaming scenario: the benchGraph
// workload replayed in 16 [][2]int batches through Service.Ingest on
// the incremental backend, so the baseline tracks per-batch
// maintenance cost next to the one-shot backends above.
func BenchmarkIncrementalBatches(b *testing.B) {
	g := benchGraph()
	var batches [][][2]int
	for _, span := range g.SpanBatches(16) {
		batches = append(batches, span.Pairs())
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := newStreamService(b, g.N)
		for _, batch := range batches {
			if _, err := sv.Ingest(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		if sv.NumComponents() == 0 {
			b.Fatal("no components")
		}
		sv.Close()
	}
}

// newStreamService returns a Service over n isolated vertices on the
// streaming incremental backend.
func newStreamService(b *testing.B, n int) *pramcc.Service {
	sv, err := pramcc.NewService(n, pramcc.WithBackend(pramcc.BackendIncremental))
	if err != nil {
		b.Fatal(err)
	}
	return sv
}

// ingestBenchGraph is the full-bench-scale replay workload for the
// BenchmarkIngest pair below — experiment E14's headline workload
// (gnm-1e6x10): dense enough (m/n = 10) and large enough that the
// replay layer's memory traffic — the quantity the span
// representation halves and de-copies — is what the measurement is
// sensitive to.
func ingestBenchGraph() *graph.Graph {
	return graph.Gnm(1_000_000, 10_000_000, 1)
}

// BenchmarkIngestSpan / BenchmarkIngestPairs are the replay-layer
// comparison behind experiment E14, measured end-to-end at the public
// API as a streaming consumer runs it: batch construction from the
// resident graph plus ingestion into a Service on the incremental
// backend. The span side slices the graph's arc columns in place
// (SpanBatches + IngestSpan, the zero-copy pipeline — its replay layer
// performs zero allocations, enforced by TestSpanIngestZeroAlloc in
// internal/forest; the allocs/op reported here are snapshot
// publication and service setup only); the pairs side materializes
// [][2]int batches (SpanBatches + EdgeSpan.Pairs + Ingest, which
// converts each batch back with graph.FromPairs). Both end in the
// identical union-find; the difference is pure replay-layer overhead.
func BenchmarkIngestSpan(b *testing.B) {
	benchIngestSpan(b)
}

// BenchmarkIngestSpanInstrumented is BenchmarkIngestSpan with the JSON
// event sink attached and draining to io.Discard — the fully
// instrumented configuration, the worst case E15 sweeps. The delta
// against BenchmarkIngestSpan is the whole cost of observability with
// a sink (envelope construction + JSON encoding per batch); without a
// sink the cost is zero by construction (TestSpanIngestZeroAlloc).
func BenchmarkIngestSpanInstrumented(b *testing.B) {
	pramcc.SetEventSink(pramcc.NewJSONEventSink(io.Discard))
	defer pramcc.SetEventSink(nil)
	benchIngestSpan(b)
}

func benchIngestSpan(b *testing.B) {
	g := ingestBenchGraph()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := newStreamService(b, g.N)
		for _, batch := range g.SpanBatches(16) {
			if _, err := sv.IngestSpan(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		sv.Close()
	}
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkIngestPairs(b *testing.B) {
	g := ingestBenchGraph()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := newStreamService(b, g.N)
		for _, span := range g.SpanBatches(16) {
			if _, err := sv.Ingest(ctx, span.Pairs()); err != nil {
				b.Fatal(err)
			}
		}
		sv.Close()
	}
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkConnectedComponentsFast(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := pramcc.ConnectedComponents(g, pramcc.WithSeed(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkConnectedComponentsLogLog(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pramcc.ConnectedComponentsLogLog(g, pramcc.WithSeed(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVanillaComponents(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pramcc.VanillaComponents(g, pramcc.WithSeed(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpanningForest(b *testing.B) {
	g := graph.Gnm(50000, 200000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pramcc.SpanningForest(g, pramcc.WithSeed(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShiloachVishkin(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.ShiloachVishkin(pram.New(), g)
	}
}

func BenchmarkUnionFindSequential(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Components(g)
	}
}

// BenchmarkCoreHighDiameter exercises the headline regime: high
// diameter at fixed density, where rounds ≈ log d.
func BenchmarkCoreHighDiameter(b *testing.B) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 1024, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 1})
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		res := core.Run(pram.New(), g, core.DefaultParams(uint64(i+1)))
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}
