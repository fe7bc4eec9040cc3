package incremental

import (
	"context"
	"math/rand"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/native"
)

// TestAddSpanMatchesFromPairs: replaying the same graph as zero-copy
// span slices (SpanBatches) and as boxed pair batches converted at the
// boundary (SpanBatches + Pairs + graph.FromPairs, the path pramcc's
// Service.Ingest takes) must produce the exact same labels — and both
// must match the one-shot native engine — for every structural family
// and across random batch splits.
func TestAddSpanMatchesFromPairs(t *testing.T) {
	for name, g := range zoo() {
		t.Run(name, func(t *testing.T) {
			want := native.Components(g, native.Options{}).Labels
			rng := rand.New(rand.NewSource(19))
			for trial := 0; trial < 3; trial++ {
				k := 1 + rng.Intn(9)
				spanEng := New(g.N, Options{Workers: 1 + rng.Intn(8)})
				for _, b := range g.SpanBatches(k) {
					if _, err := spanEng.AddSpan(b); err != nil {
						t.Fatal(err)
					}
				}
				pairEng := New(g.N, Options{Workers: 1 + rng.Intn(8)})
				for _, b := range g.SpanBatches(k) {
					if _, err := pairEng.AddSpan(graph.FromPairs(b.Pairs())); err != nil {
						t.Fatal(err)
					}
				}
				spanLabels := spanEng.Snapshot().Labels
				pairLabels := pairEng.Snapshot().Labels
				for v := range want {
					if spanLabels[v] != want[v] || pairLabels[v] != want[v] {
						t.Fatalf("trial %d (k=%d): label[%d] span=%d pairs=%d native=%d",
							trial, k, v, spanLabels[v], pairLabels[v], want[v])
					}
				}
				spanEng.Close()
				pairEng.Close()
			}
		})
	}
}

// TestAddSpanRejects: malformed spans are rejected whole, with no
// partial application and no snapshot advance.
func TestAddSpanRejects(t *testing.T) {
	e := New(4, Options{Workers: 2})
	defer e.Close()
	before := e.Snapshot()
	bad := map[string]graph.EdgeSpan{
		"column length mismatch": {U: []int32{0, 1}, V: []int32{1}},
		"odd arc count":          {U: []int32{0}, V: []int32{1}},
		"out of range":           {U: []int32{0, 1, 2, 9}, V: []int32{1, 0, 9, 2}},
		"negative endpoint":      {U: []int32{0, 1, -1, 2}, V: []int32{1, 0, 2, -1}},
	}
	for name, s := range bad {
		if _, err := e.AddSpan(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if e.Snapshot() != before {
		t.Fatal("rejected span advanced the snapshot")
	}
	if sameComponent(e, 0, 1) {
		t.Fatal("rejected span was partially applied")
	}
}

// TestAddSpanDegenerate: empty spans publish (batch bookkeeping
// advances), self-loops and parallel edges are absorbed, and the
// mirror arcs of a span are never consulted by ingestion.
func TestAddSpanDegenerate(t *testing.T) {
	e := New(5, Options{Workers: 3})
	defer e.Close()
	if s, err := e.AddSpan(graph.EdgeSpan{}); err != nil || s.Batches != 1 || s.Components != 5 {
		t.Fatalf("empty span: %+v, %v", s, err)
	}
	s, err := e.AddSpan(graph.FromPairs([][2]int{{2, 2}, {0, 1}, {1, 0}, {0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Components != 4 || s.Edges != 4 || s.Batches != 2 {
		t.Fatalf("degenerate span snapshot: %+v", s)
	}
	if !sameComponent(e, 0, 1) || sameComponent(e, 0, 2) {
		t.Fatal("connectivity wrong after degenerate span")
	}
}

// TestAddSpanContextCancelled: a span batch whose ctx is already
// cancelled publishes nothing, and resubmission completes it.
// TestAddSpanCancelledMidBatch covers cancellation partway through.
func TestAddSpanContextCancelled(t *testing.T) {
	g := graph.Gnm(3000, 12000, 23)
	e := New(g.N, Options{Workers: 2})
	defer e.Close()
	batches := g.SpanBatches(3)
	if _, err := e.AddSpan(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AddSpanContext(ctx, batches[1]); err != context.Canceled {
		t.Fatalf("AddSpanContext = %v, want context.Canceled", err)
	}
	if e.Snapshot() != before {
		t.Fatal("cancelled span advanced the snapshot")
	}
	for _, b := range batches[1:] {
		if _, err := e.AddSpan(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := check.SamePartition(e.Snapshot().Labels, baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
}

// TestSpanIngestZeroAlloc pins the tentpole property: the replay
// layer between a span and the union-find — validation plus the
// sharded ingest through the pre-bound worker — performs zero heap
// allocations. Only snapshot publication (the labels slice and the
// Snapshot struct, measured separately) allocates per batch.
//
// ingestSpan also carries the observability instrumentation (batch and
// edge counters, plus the sink-gated batch event), so this test doubly
// pins the no-sink-is-free contract: the counters must advance inside
// the measured region while the region still allocates nothing.
func TestSpanIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	g := graph.Gnm(20000, 80000, 31)
	e := New(g.N, Options{})
	defer e.Close()
	span := g.Span()
	ctx := context.Background()
	// Warm: the forest absorbs the edges once; re-ingesting the same
	// span is idempotent, so steady state re-runs the full union scan.
	if _, err := e.AddSpanContext(ctx, span); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	batchesBefore, edgesBefore := mBatches.Value(), mEdges.Value()
	if avg := testing.AllocsPerRun(runs, func() {
		if err := e.validateSpan(span); err != nil {
			t.Fatal(err)
		}
		if err := e.ingestSpan(ctx, span); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("span replay layer allocates %.1f times per batch, want 0", avg)
	}
	// AllocsPerRun executes runs+1 iterations (one warmup). Other tests
	// may ingest concurrently with -parallel, hence >= not ==.
	if d := mBatches.Value() - batchesBefore; d < runs+1 {
		t.Errorf("pramcc_uf_batches_total advanced by %d inside the zero-alloc region, want >= %d", d, runs+1)
	}
	if d := mEdges.Value() - edgesBefore; d < int64(runs+1)*int64(span.Len()) {
		t.Errorf("pramcc_uf_edges_total advanced by %d inside the zero-alloc region, want >= %d", d, int64(runs+1)*int64(span.Len()))
	}
}

// BenchmarkEngineIngestSpan: the span replay at the engine layer
// (fresh forest per iteration, batch construction included — the
// quantity experiment E14 sweeps at full scale and
// scripts/bench_baseline.sh tracks).
func BenchmarkEngineIngestSpan(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	b.SetBytes(int64(g.NumEdges()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(g.N, Options{})
		for _, batch := range g.SpanBatches(16) {
			if _, err := e.AddSpan(batch); err != nil {
				b.Fatal(err)
			}
		}
		e.Close()
	}
}
