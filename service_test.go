package pramcc

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// TestServiceUpdateAllBackends: the serving layer publishes correct
// immutable snapshots on every registered backend, and earlier
// snapshots survive later updates untouched.
func TestServiceUpdateAllBackends(t *testing.T) {
	g1 := graph.Gnm(2000, 6000, 3)
	g2 := graph.Path(1500)
	for _, bk := range Backends() {
		t.Run(bk.String(), func(t *testing.T) {
			sv, err := NewService(10, WithBackend(bk), WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Close()
			if sv.N() != 10 || sv.NumComponents() != 10 {
				t.Fatalf("fresh service: N=%d components=%d", sv.N(), sv.NumComponents())
			}
			if sv.SameComponent(0, 1) || !sv.SameComponent(3, 3) {
				t.Fatal("fresh service connectivity wrong")
			}
			r1, err := sv.Update(context.Background(), g1)
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(sv.Labels(), baseline.Components(g1)); err != nil {
				t.Fatal(err)
			}
			keep := append([]int32(nil), r1.Labels...)
			if _, err := sv.Update(context.Background(), g2); err != nil {
				t.Fatal(err)
			}
			if sv.N() != g2.N {
				t.Fatalf("N after second update = %d, want %d", sv.N(), g2.N)
			}
			// r1 is an immutable published snapshot: the later Update
			// must not have touched it.
			for i := range keep {
				if r1.Labels[i] != keep[i] {
					t.Fatal("published snapshot mutated by a later Update")
				}
			}
			if err := check.SamePartition(sv.Snapshot().Labels, baseline.Components(g2)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServiceIngest: the streaming path on the incremental backend —
// batches union into the live labeling, Grow extends the vertex set,
// and non-streaming backends reject Ingest with a useful error.
func TestServiceIngest(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 16, Size: 10, IntraDeg: 6, Bridges: 1, Seed: 5})
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	for _, span := range g.SpanBatches(7) {
		res, err := sv.Ingest(context.Background(), span.Pairs())
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != sv.NumComponents() {
			t.Fatalf("ingest result components %d, snapshot %d", res.NumComponents, sv.NumComponents())
		}
	}
	if err := check.SamePartition(sv.Labels(), baseline.Components(g)); err != nil {
		t.Fatal(err)
	}

	// Grow then connect a new vertex to component of vertex 0.
	n := sv.N()
	if err := sv.Grow(n + 2); err != nil {
		t.Fatal(err)
	}
	if sv.N() != n+2 || sv.SameComponent(0, n) {
		t.Fatalf("grow: N=%d, same(0,%d)=%v", sv.N(), n, sv.SameComponent(0, n))
	}
	if _, err := sv.Ingest(context.Background(), [][2]int{{0, n}}); err != nil {
		t.Fatal(err)
	}
	if !sv.SameComponent(0, n) || sv.SameComponent(0, n+1) {
		t.Fatal("ingest after grow: connectivity wrong")
	}

	// Out-of-range edges are rejected whole; the snapshot stands.
	before := sv.NumComponents()
	if _, err := sv.Ingest(context.Background(), [][2]int{{0, sv.N() + 5}}); err == nil {
		t.Fatal("out-of-range ingest accepted")
	}
	if sv.NumComponents() != before {
		t.Fatal("rejected ingest changed the snapshot")
	}

	// Native backend: Ingest and Grow are typed errors, Update works.
	nat, err := NewService(4, WithBackend(BackendNative))
	if err != nil {
		t.Fatal(err)
	}
	defer nat.Close()
	if _, err := nat.Ingest(context.Background(), [][2]int{{0, 1}}); err == nil {
		t.Fatal("native Ingest succeeded")
	}
	if err := nat.Grow(10); err == nil {
		t.Fatal("native Grow succeeded")
	}
	if _, err := nat.Update(context.Background(), graph.Path(64)); err != nil {
		t.Fatal(err)
	}
}

// TestServiceUpdateThenIngest: on the incremental backend an Update
// defines the live labeling and Ingest continues from it.
func TestServiceUpdateThenIngest(t *testing.T) {
	g := graph.Gnm(500, 400, 9) // sparse: many components to merge
	sv, err := NewService(0, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if _, err := sv.Update(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	before := sv.NumComponents()
	// Connect vertices 0..9 in a chain on top of the updated graph.
	edges := make([][2]int, 0, 9)
	for v := 0; v < 9; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	if _, err := sv.Ingest(context.Background(), edges); err != nil {
		t.Fatal(err)
	}
	if sv.NumComponents() > before {
		t.Fatalf("components grew from %d to %d after merging ingest", before, sv.NumComponents())
	}
	for v := 0; v < 9; v++ {
		if !sv.SameComponent(v, v+1) {
			t.Fatalf("chain edge {%d,%d} not reflected", v, v+1)
		}
	}
}

// TestServiceConcurrentQueriesDuringWrites: the headline contract —
// lock-free queries stay safe and consistent while Update and Ingest
// replace snapshots. Run under -race in CI.
func TestServiceConcurrentQueriesDuringWrites(t *testing.T) {
	g := graph.Gnm(3000, 12000, 23)
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					snap := sv.Snapshot()
					if snap.NumComponents < 1 || snap.NumComponents > g.N {
						t.Error("inconsistent snapshot")
						return
					}
					_ = sv.SameComponent(0, g.N-1)
				}
			}
		}()
	}
	for _, span := range g.SpanBatches(20) {
		if _, err := sv.Ingest(context.Background(), span.Pairs()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sv.Update(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := check.SamePartition(sv.Labels(), baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
}

// TestServiceIngestAfterCancelledUpdate is the review regression for
// the destructive-rebuild hole: Update on a streaming backend resets
// the live forest before the (cancellable) re-ingest, so a cancelled
// Update used to leave a wiped engine behind — the next Ingest then
// silently published a labeling that had lost every previously
// ingested component. The live labeling must instead snap back to the
// published snapshot, so ingestion continues from what queries see.
func TestServiceIngestAfterCancelledUpdate(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 32, Size: 12, IntraDeg: 6, Bridges: 1, Seed: 3})
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	batches := g.SpanBatches(4)
	for _, b := range batches[:3] {
		if _, err := sv.Ingest(context.Background(), b.Pairs()); err != nil {
			t.Fatal(err)
		}
	}
	keep := sv.Labels()

	// A MID-RUN-cancelled full recompute over a graph with a DIFFERENT
	// vertex count — the worst case: the engine has already been reset
	// to the new graph's size (an already-cancelled context would fail
	// fast before the destructive reset and never tickle the bug, so
	// the check budget is chosen to survive the Solver's fail-fast
	// check and cancel during the ingest itself).
	if _, err := sv.Update(newCancelAfter(2), graph.Gnm(g.N/2, 20000, 5)); err == nil {
		t.Fatal("cancelled Update succeeded")
	}

	// The next batch must extend the pre-Update labeling, not a wiped
	// forest.
	if _, err := sv.Ingest(context.Background(), batches[3].Pairs()); err != nil {
		t.Fatal(err)
	}
	if sv.N() != g.N {
		t.Fatalf("vertex set shrank to %d after cancelled Update", sv.N())
	}
	for v, l := range keep {
		if !sv.SameComponent(v, int(l)) {
			t.Fatalf("component of %d lost after cancelled Update", v)
		}
	}
	if err := check.SamePartition(sv.Labels(), baseline.Components(g)); err != nil {
		t.Fatalf("final labeling wrong after cancelled Update: %v", err)
	}
}

// TestServiceClosed: writers fail after Close, queries keep serving
// the last snapshot — on a recomputing backend and on the streaming
// one, whose Ingest, IngestSpan and Grow must all refuse.
func TestServiceClosed(t *testing.T) {
	g := graph.Path(100)
	for _, bk := range []Backend{BackendNative, BackendIncremental} {
		t.Run(bk.String(), func(t *testing.T) {
			sv, err := NewService(0, WithBackend(bk))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sv.Update(context.Background(), g); err != nil {
				t.Fatal(err)
			}
			sv.Close()
			sv.Close() // idempotent
			if _, err := sv.Update(context.Background(), g); err != ErrSolverClosed {
				t.Fatalf("Update after Close: %v", err)
			}
			if bk == BackendIncremental {
				if _, err := sv.Ingest(context.Background(), [][2]int{{0, 1}}); err != ErrSolverClosed {
					t.Fatalf("Ingest after Close: %v", err)
				}
				if _, err := sv.IngestSpan(context.Background(), g.Span()); err != ErrSolverClosed {
					t.Fatalf("IngestSpan after Close: %v", err)
				}
				if err := sv.Grow(200); err != ErrSolverClosed {
					t.Fatalf("Grow after Close: %v", err)
				}
			}
			if !sv.SameComponent(0, 99) || sv.NumComponents() != 1 || sv.N() != 100 {
				t.Fatal("queries broken after Close")
			}
		})
	}
}

// TestIncrementalStreaming: the happy path of streaming on the
// incremental backend — a graph replayed in batches, with the
// per-batch figures a caller reads off each Result (batch index as
// Stats.Rounds, components, wall time; the edge total is the caller's
// running sum) agreeing with the served snapshot.
func TestIncrementalStreaming(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 20, Size: 10, IntraDeg: 6, Bridges: 1, Seed: 7})
	sv, err := NewService(g.N, WithBackend(BackendIncremental), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if sv.NumComponents() != g.N || sv.N() != g.N {
		t.Fatalf("fresh service: count=%d n=%d", sv.NumComponents(), sv.N())
	}
	batches := g.SpanBatches(7)
	total := 0
	for i, span := range batches {
		batch := span.Pairs()
		res, err := sv.Ingest(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		total += len(batch)
		if res.Stats.Rounds != i+1 || res.Stats.Backend != BackendIncremental || res.Stats.Wall <= 0 {
			t.Fatalf("batch %d stats %+v", i+1, res.Stats)
		}
		if res.NumComponents != sv.NumComponents() {
			t.Fatalf("Result components %d, service says %d", res.NumComponents, sv.NumComponents())
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("replayed %d edges, graph has %d", total, g.NumEdges())
	}
	if err := check.SamePartition(sv.Labels(), baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesSimulated: after any randomized batch split,
// the streaming partition equals the simulated Theorem-3 partition.
func TestIncrementalMatchesSimulated(t *testing.T) {
	g := graph.Gnm(2000, 6000, 19)
	sim, err := Components(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	edges := g.Span().Pairs()
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		sv, err := NewService(g.N, WithBackend(BackendIncremental))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(edges); {
			hi := lo + 1 + rng.Intn(len(edges)-lo)
			if _, err := sv.Ingest(context.Background(), edges[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if err := check.SamePartition(sv.Labels(), sim.Labels); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sv.Close()
	}
}

// TestIncrementalErrors: constructor and batch validation on the
// streaming service — a negative vertex count is refused, and a batch
// with any bad endpoint is rejected whole, nothing of it applied.
func TestIncrementalErrors(t *testing.T) {
	if _, err := NewService(-1, WithBackend(BackendIncremental)); err == nil {
		t.Fatal("NewService(-1) succeeded")
	}
	sv, err := NewService(10, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	ctx := context.Background()
	if _, err := sv.Ingest(ctx, [][2]int{{0, 10}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := sv.Ingest(ctx, [][2]int{{-1, 0}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	before := sv.Snapshot()
	if _, err := sv.Ingest(ctx, [][2]int{{0, 1}, {2, 99}}); err == nil {
		t.Fatal("half-bad batch accepted")
	}
	if sv.Snapshot() != before || sv.SameComponent(0, 1) {
		t.Fatal("rejected batch was partially applied")
	}
	// The engine itself must be untouched too, not just the snapshot:
	// the next good batch publishes exactly its own edge.
	res, err := sv.Ingest(ctx, [][2]int{{2, 3}})
	if err != nil || res.NumComponents != 9 || sv.SameComponent(0, 1) || res.Stats.Rounds != 1 {
		t.Fatalf("good batch after rejections: %+v, %v", res, err)
	}
}

// TestIncrementalConcurrentQueries: queries racing the streaming
// writers — Ingest batches interleaved with Grow — are safe and see
// consistent snapshots (run under -race in CI).
func TestIncrementalConcurrentQueries(t *testing.T) {
	g := graph.Gnm(3000, 15000, 23)
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := sv.Snapshot()
				if snap.NumComponents < 1 || snap.NumComponents > len(snap.Labels) {
					t.Errorf("inconsistent snapshot: %d components over %d vertices", snap.NumComponents, len(snap.Labels))
					return
				}
				_ = sv.SameComponent(0, sv.N()-1)
			}
		}()
	}
	for i, span := range g.SpanBatches(40) {
		if _, err := sv.Ingest(context.Background(), span.Pairs()); err != nil {
			t.Fatal(err)
		}
		if err := sv.Grow(g.N + i + 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := check.SamePartition(sv.Labels()[:g.N], baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
	if want := countLabels(baseline.Components(g), new([]bool)) + 40; sv.N() != g.N+40 || sv.NumComponents() != want {
		t.Fatalf("after grows: N=%d components=%d", sv.N(), sv.NumComponents())
	}
}

// TestServiceCloseRace: Close racing an IngestSpan writer (and another
// Close) must stay clean under -race; every IngestSpan either applies
// fully or reports ErrSolverClosed, and queries survive throughout.
func TestServiceCloseRace(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := graph.Gnm(2000, 8000, int64(trial))
		sv, err := NewService(g.N, WithBackend(BackendIncremental), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		batches := g.SpanBatches(16)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(3)
		go func() { // writer
			defer wg.Done()
			<-start
			for _, b := range batches {
				if _, err := sv.IngestSpan(context.Background(), b); err != nil {
					if err != ErrSolverClosed {
						t.Errorf("IngestSpan racing Close: %v", err)
					}
					if !sv.SameComponent(0, 0) {
						t.Error("queries broken after closed-service error")
					}
					return // closed underneath us: the documented outcome
				}
			}
		}()
		go func() { // closer, racing the writer
			defer wg.Done()
			<-start
			if trial%2 == 0 {
				runtime.Gosched()
			}
			sv.Close()
		}()
		go func() { // second closer: Close must be idempotent under race
			defer wg.Done()
			<-start
			sv.Close()
		}()
		close(start)
		wg.Wait()
		// Whatever the interleaving, the service is closed now and the
		// snapshot is a consistent batch boundary.
		if _, err := sv.IngestSpan(context.Background(), batches[0]); err != ErrSolverClosed {
			t.Fatalf("IngestSpan after Close: %v", err)
		}
		n := sv.NumComponents()
		if n < 1 || n > g.N {
			t.Fatalf("inconsistent component count %d", n)
		}
	}
}
