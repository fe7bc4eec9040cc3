package forest

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/uf"
)

// zoo is a compact generator spread: every structural family the
// engine could plausibly mishandle (deep paths, stars, dense cliques,
// multigraphs, isolated vertices, multiple components).
func zoo() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":        graph.Path(300),
		"star":        graph.Star(200),
		"grid2d":      graph.Grid2D(17, 23),
		"clique":      graph.Clique(40),
		"gnm":         graph.Gnm(2500, 8000, 7),
		"gnm-sparse":  graph.Gnm(2000, 700, 8),
		"rmat":        graph.RMAT(1024, 4000, 9),
		"beads":       graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 24, Size: 10, IntraDeg: 6, Bridges: 2, Seed: 5}),
		"disjoint":    graph.DisjointUnion(graph.Path(80), graph.Clique(15), graph.Gnm(400, 1200, 11)),
		"isolated":    graph.WithIsolated(graph.Grid2D(8, 8), 13),
		"caterpillar": graph.Caterpillar(40, 3),
	}
}

// TestEngineMatchesNativeLabels: one-batch ingestion must produce the
// exact labels of the native engine (both canonicalize to component
// minima), not merely the same partition.
func TestEngineMatchesNativeLabels(t *testing.T) {
	for name, g := range zoo() {
		t.Run(name, func(t *testing.T) {
			e := New(g.N, Options{})
			defer e.Close()
			snap := addGraph(t, e, g)
			nat := components(g, Options{})
			if len(snap.Labels) != len(nat.Labels) {
				t.Fatalf("label lengths differ: %d vs %d", len(snap.Labels), len(nat.Labels))
			}
			for v := range snap.Labels {
				if snap.Labels[v] != nat.Labels[v] {
					t.Fatalf("label[%d] = %d, native %d", v, snap.Labels[v], nat.Labels[v])
				}
			}
			if err := check.SamePartition(snap.Labels, baseline.Components(g)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLabelsAreComponentMinima: whole-graph and batched ingestion
// publish the BFS oracle's minimum-id labels. The native engine runs
// the same uf kernel, so this pins the labels to an oracle that shares
// no code with the engine.
func TestLabelsAreComponentMinima(t *testing.T) {
	for name, g := range zoo() {
		t.Run(name, func(t *testing.T) {
			want := g.ComponentsBFS()
			for _, k := range []int{1, 5} {
				e := New(g.N, Options{Workers: 3})
				defer e.Close()
				for _, span := range g.SpanBatches(k) {
					if _, err := e.AddSpan(span); err != nil {
						t.Fatal(err)
					}
				}
				for v, l := range e.Snapshot().Labels {
					if l != want[v] {
						t.Fatalf("%d batches: label[%d] = %d, BFS %d", k, v, l, want[v])
					}
				}
			}
		})
	}
}

// TestBatchSplitInvariance: the final partition must not depend on how
// the edge stream is cut into batches, on the batch sizes, or on the
// (shuffled) edge order within the stream.
func TestBatchSplitInvariance(t *testing.T) {
	for name, g := range zoo() {
		t.Run(name, func(t *testing.T) {
			want := components(g, Options{}).Labels
			rng := rand.New(rand.NewSource(42))
			edges := g.Span().Pairs()
			for trial := 0; trial < 4; trial++ {
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				e := New(g.N, Options{Workers: 1 + rng.Intn(8)})
				// Random cut points: between 1 and 7 batches of random sizes.
				for lo := 0; lo < len(edges); {
					hi := lo + 1 + rng.Intn(len(edges)-lo)
					if _, err := e.AddSpan(graph.FromPairs(edges[lo:hi])); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				snap := e.Snapshot()
				for v := range want {
					if snap.Labels[v] != want[v] {
						t.Fatalf("trial %d: label[%d] = %d, want %d", trial, v, snap.Labels[v], want[v])
					}
				}
				if got := countDistinct(want); snap.Components != got {
					t.Fatalf("trial %d: %d components, want %d", trial, snap.Components, got)
				}
				e.Close()
			}
		})
	}
}

func countDistinct(labels []int32) int {
	seen := map[int32]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// TestSnapshotMonotonicity: the component count never increases as
// batches arrive, and queries between batches reflect exactly the
// edges ingested so far (checked against a union-find replay).
func TestSnapshotMonotonicity(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 16, Size: 8, IntraDeg: 5, Bridges: 1, Seed: 3})
	e := New(g.N, Options{})
	defer e.Close()
	if c := e.Snapshot().Components; c != g.N {
		t.Fatalf("empty engine has %d components, want %d", c, g.N)
	}
	uf := baseline.NewUnionFind(g.N)
	prev := g.N
	for _, batch := range g.SpanBatches(9) {
		snap, err := e.AddSpan(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch.Len(); i++ {
			uf.Union(batch.Edge(i))
		}
		if snap.Components > prev {
			t.Fatalf("component count rose from %d to %d", prev, snap.Components)
		}
		prev = snap.Components
		oracle := make([]int32, g.N)
		for v := range oracle {
			oracle[v] = uf.Find(int32(v))
		}
		if err := check.SamePartition(snap.Labels, oracle); err != nil {
			t.Fatalf("mid-stream snapshot wrong: %v", err)
		}
	}
}

// TestConcurrentQueriesDuringIngest: Snapshot reads racing an in-flight AddSpan must be safe (the race
// detector is the assertion) and must only ever observe consistent
// batch-boundary states: a snapshot's component count always matches
// its labels.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	g := graph.Gnm(4000, 20000, 21)
	e := New(g.N, Options{})
	defer e.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				if got := countDistinct(s.Labels); got != s.Components {
					t.Errorf("inconsistent snapshot: %d distinct labels, Components=%d", got, s.Components)
					return
				}
				_ = sameComponent(e, r, g.N-1-r)
			}
		}(r)
	}
	for _, batch := range g.SpanBatches(50) {
		if _, err := e.AddSpan(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := check.SamePartition(e.Snapshot().Labels, baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateInputs: empty graphs, self-loops, parallel edges,
// empty batches.
func TestDegenerateInputs(t *testing.T) {
	e := New(0, Options{})
	if s, err := e.AddSpan(graph.EdgeSpan{}); err != nil || s.Components != 0 || s.Batches != 1 {
		t.Fatalf("empty engine snapshot: %+v, %v", s, err)
	}
	e.Close()

	e = New(5, Options{Workers: 3})
	defer e.Close()
	if _, err := e.AddSpan(graph.FromPairs(nil)); err != nil { // empty batch still publishes
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.Batches != 1 || s.Components != 5 {
		t.Fatalf("after empty batch: batches=%d components=%d", s.Batches, s.Components)
	}
	snap, err := e.AddSpan(graph.FromPairs([][2]int{{2, 2}, {0, 1}, {1, 0}, {0, 1}})) // self-loop + parallels
	if err != nil {
		t.Fatal(err)
	}
	if snap.Components != 4 {
		t.Fatalf("components = %d, want 4", snap.Components)
	}
	if snap.Edges != 4 || snap.Batches != 2 {
		t.Fatalf("snapshot bookkeeping: %+v", snap)
	}
	if !sameComponent(e, 0, 1) || sameComponent(e, 0, 2) {
		t.Fatal("connectivity wrong after degenerate batch")
	}

	if _, err := e.AddSpan(graph.FromPairs([][2]int{{0, 5}})); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// A rejected batch must not be applied even partially: the valid
	// {0,2} edge precedes the bad one, yet 2 must stay isolated.
	if _, err := e.AddSpan(graph.FromPairs([][2]int{{0, 2}, {-1, 2}})); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if sameComponent(e, 0, 2) || e.Snapshot().Batches != 2 {
		t.Fatal("rejected batch was partially applied")
	}
}

// TestWorkerCounts: every worker count gives the same labels.
func TestWorkerCounts(t *testing.T) {
	g := graph.Gnm(3000, 9000, 17)
	want := components(g, Options{}).Labels
	for _, w := range []int{1, 2, 3, 7, 16} {
		e := New(g.N, Options{Workers: w})
		snap := addGraph(t, e, g)
		for v := range want {
			if snap.Labels[v] != want[v] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", w, v, snap.Labels[v], want[v])
			}
		}
		if e.Workers() != w {
			t.Fatalf("Workers() = %d, want %d", e.Workers(), w)
		}
		e.Close()
	}
}

func BenchmarkIncrementalOneBatch(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(g.N, Options{})
		addGraph(b, e, g)
		e.Close()
	}
}

func BenchmarkIncrementalStream16(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	batches := g.SpanBatches(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(g.N, Options{})
		for _, batch := range batches {
			if _, err := e.AddSpan(batch); err != nil {
				b.Fatal(err)
			}
		}
		e.Close()
	}
}

// BenchmarkIncrementalAppendBatch measures the steady-state cost of
// one small append batch against an already-built labeling — the
// latency a streaming consumer actually pays per update.
func BenchmarkIncrementalAppendBatch(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	e := New(g.N, Options{})
	defer e.Close()
	addGraph(b, e, g)
	rng := rand.New(rand.NewSource(7))
	batch := graph.EdgeSpan{U: make([]int32, 2*1024), V: make([]int32, 2*1024)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch.Len(); j++ {
			u, v := int32(rng.Intn(g.N)), int32(rng.Intn(g.N))
			batch.U[2*j], batch.U[2*j+1] = u, v
			batch.V[2*j], batch.V[2*j+1] = v, u
		}
		if _, err := e.AddSpan(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineReset: a Reset engine (buffer and pool reuse) must be
// indistinguishable from a freshly built one, across shrinking and
// growing vertex counts.
func TestEngineReset(t *testing.T) {
	e := New(0, Options{Workers: 3})
	defer e.Close()
	graphs := []*graph.Graph{
		graph.Gnm(2000, 6000, 1),
		graph.Path(301),
		graph.Gnm(5000, 1200, 2),
	}
	for i, g := range graphs {
		e.Reset(g.N)
		if s := e.Snapshot(); e.N() != g.N || s.Components != g.N || s.Batches != 0 || s.Edges != 0 {
			t.Fatalf("graph %d: reset state wrong: n=%d comps=%d batches=%d edges=%d",
				i, e.N(), s.Components, s.Batches, s.Edges)
		}
		snap := addGraph(t, e, g)
		if snap.Batches != 1 {
			t.Fatalf("graph %d: batches=%d after one batch", i, snap.Batches)
		}
		if err := check.SamePartition(snap.Labels, baseline.Components(g)); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

// TestEngineGrow: Grow preserves components, isolates the new
// vertices, and lets later batches connect them.
func TestEngineGrow(t *testing.T) {
	e := New(10, Options{Workers: 2})
	defer e.Close()
	if _, err := e.AddSpan(graph.FromPairs([][2]int{{0, 1}, {1, 2}})); err != nil {
		t.Fatal(err)
	}
	e.Grow(12)
	e.Grow(5) // no-op shrink attempt
	if e.N() != 12 {
		t.Fatalf("N after grow = %d", e.N())
	}
	snap, err := e.AddSpan(graph.FromPairs([][2]int{{2, 10}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Labels) != 12 {
		t.Fatalf("snapshot over %d vertices, want 12", len(snap.Labels))
	}
	if snap.Labels[10] != snap.Labels[0] || snap.Labels[11] != 11 {
		t.Fatalf("grown-vertex labels wrong: %v", snap.Labels)
	}
	// 12 vertices, component {0,1,2,10}, 8 singletons => 9 components.
	if snap.Components != 9 {
		t.Fatalf("components = %d, want 9", snap.Components)
	}
}

// cancelAfter is a context that reports cancellation from its k-th
// Err call on, so a test can cancel a batch midway through the
// sharded ingest instead of before it starts.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(k int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAddSpanCancelledMidBatch: a batch cancelled after some of its
// chunks were unioned publishes nothing — queries keep seeing the
// previous batch boundary even though the unpublished forest already
// holds part of the batch — and re-submitting the batch completes it
// exactly (unions are idempotent).
func TestAddSpanCancelledMidBatch(t *testing.T) {
	g := graph.Gnm(3000, 12000, 17)
	e := New(g.N, Options{Workers: 2, Grain: 64})
	defer e.Close()
	batches := g.SpanBatches(3)
	if _, err := e.AddSpan(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	// Two Err calls pass (ingestSpan's entry check and the first
	// chunk), so the batch is cut off partway through its chunks.
	if _, err := e.AddSpanContext(newCancelAfter(2), batches[1]); err != context.Canceled {
		t.Fatalf("AddSpanContext = %v, want context.Canceled", err)
	}
	if e.Snapshot() != before {
		t.Fatal("cancelled batch advanced the snapshot")
	}
	merged := 0
	for i := 0; i < batches[1].Len(); i++ {
		u, v := batches[1].Edge(i)
		if before.Labels[u] != before.Labels[v] && uf.Find(e.parent, u) == uf.Find(e.parent, v) {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("the cancelled batch unioned nothing; the test no longer cancels mid-batch")
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

// sameComponent reports whether v and w share a label in e's
// published snapshot.
func sameComponent(e *Engine, v, w int) bool {
	s := e.Snapshot()
	return s.Labels[v] == s.Labels[w]
}

// addGraph ingests g as one batch, failing the test or benchmark on
// error.
func addGraph(tb testing.TB, e *Engine, g *graph.Graph) *Snapshot {
	tb.Helper()
	snap, err := e.AddSpan(g.Span())
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// union returns the graph on n vertices holding the edges of every
// span, the oracle input for a forest those spans were linked into.
func union(n int, spans ...graph.EdgeSpan) *graph.Graph {
	g := graph.New(n)
	for _, s := range spans {
		for i := 0; i < s.Len(); i++ {
			u, v := s.Edge(i)
			g.AddEdge(int(u), int(v))
		}
	}
	return g
}

// TestSampledRoundOnUsedForest: a streaming batch with m ≥ 2.5n takes
// the sample → shortcut → finish round over a forest that already
// holds earlier unions — after a small batch, and after RestoreLabels —
// and the published labels still equal the BFS oracle's component
// minima, at every worker count.
func TestSampledRoundOnUsedForest(t *testing.T) {
	const n = 2000
	small := graph.Gnm(n, n/2, 41).Span()
	dense := graph.Gnm(n, 10*n, 42).Span()
	if s := sampleStride(n, dense.Len()); s < 2 {
		t.Fatalf("dense batch gives stride %d, want a sampled round", s)
	}
	want := union(n, small, dense).ComponentsBFS()
	restored := union(n, small).ComponentsBFS()
	for _, workers := range []int{1, 2, 4} {
		e := New(n, Options{Workers: workers})
		for _, span := range []graph.EdgeSpan{small, dense} {
			if _, err := e.AddSpan(span); err != nil {
				t.Fatal(err)
			}
		}
		requireLabels(t, fmt.Sprintf("batches workers=%d", workers), want, e.Snapshot().Labels)

		e.RestoreLabels(restored)
		snap, err := e.AddSpan(dense)
		if err != nil {
			t.Fatal(err)
		}
		requireLabels(t, fmt.Sprintf("restored workers=%d", workers), want, snap.Labels)
		e.Close()
	}
}

// TestRestoreLabelsCopiesOnce: restoring into a forest with enough
// capacity copies the labels into the forest and nothing else — the
// labels become the published snapshot as they are, so the only
// allocation is the Snapshot header.
func TestRestoreLabelsCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	g := graph.Gnm(20000, 30000, 43)
	labels := g.ComponentsBFS()
	e := New(g.N, Options{Workers: 2})
	defer e.Close()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { e.RestoreLabels(labels) })
	runtime.ReadMemStats(&after)
	if allocs > 1 {
		t.Fatalf("RestoreLabels allocates %.1f objects, want only the Snapshot header", allocs)
	}
	if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun >= 1024 {
		t.Fatalf("RestoreLabels allocates %d bytes per call on %d vertices, want no label copy", perRun, g.N)
	}
	snap := e.Snapshot()
	if &snap.Labels[0] != &labels[0] {
		t.Fatal("the published snapshot is a copy of the restored labels")
	}
	if snap.Components != countDistinct(labels) || snap.Batches != 0 {
		t.Fatalf("restored snapshot: %d components, %d batches", snap.Components, snap.Batches)
	}
}
