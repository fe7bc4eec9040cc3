package pramcc

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// FuzzSpanPairEquivalence: for an arbitrary multigraph and an
// arbitrary batch split, the three ways of reaching a labeling — the
// columnar span replay (Service.IngestSpan), the boxed pair replay
// (Service.Ingest), and a one-shot native solve — must agree exactly
// (all three canonicalize to component minima, so equality is
// elementwise, not merely up-to-relabeling).
func FuzzSpanPairEquivalence(f *testing.F) {
	f.Add(uint16(10), uint16(20), int64(1), uint64(1))
	f.Add(uint16(100), uint16(50), int64(2), uint64(7))
	f.Add(uint16(1), uint16(0), int64(3), uint64(9))
	f.Add(uint16(300), uint16(2000), int64(4), uint64(3))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, gseed int64, splitSeed uint64) {
		n := int(nRaw%400) + 1
		m := int(mRaw % 1500)
		g := graph.Gnm(n, m, gseed)

		nat, err := Components(g, WithBackend(BackendNative))
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Components(g, nat.Labels); err != nil {
			t.Fatal(err)
		}

		// Random contiguous cut points, shared by both replays.
		rng := rand.New(rand.NewSource(int64(splitSeed)))
		var cuts []int
		for lo := 0; lo < m; {
			hi := lo + 1 + rng.Intn(m-lo)
			cuts = append(cuts, hi)
			lo = hi
		}

		spanSv, err := NewService(g.N, WithBackend(BackendIncremental))
		if err != nil {
			t.Fatal(err)
		}
		defer spanSv.Close()
		pairSv, err := NewService(g.N, WithBackend(BackendIncremental))
		if err != nil {
			t.Fatal(err)
		}
		defer pairSv.Close()

		ctx := context.Background()
		span := g.Span()
		edges := g.Span().Pairs()
		lo := 0
		for _, hi := range cuts {
			if _, err := spanSv.IngestSpan(ctx, span.Slice(lo, hi)); err != nil {
				t.Fatal(err)
			}
			if _, err := pairSv.Ingest(ctx, edges[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}

		spanLabels := spanSv.LabelsInto(nil)
		pairLabels := pairSv.Labels()
		if !slices.Equal(spanLabels, nat.Labels) {
			t.Fatalf("span labels differ from native: %v vs %v", spanLabels, nat.Labels)
		}
		if !slices.Equal(pairLabels, nat.Labels) {
			t.Fatalf("pair labels differ from native: %v vs %v", pairLabels, nat.Labels)
		}
	})
}

// TestIncrementalSpanConcurrentReaders is the -race stress of the
// span pipeline on the incremental backend: reader goroutines hammer
// SameComponent and the zero-alloc LabelsInto (each reusing its own
// buffer) while the writer loops IngestSpan batches. The race detector
// is the main assertion; each observed labeling must also be
// internally consistent (a prefix of the stream, so labels ≤ vertex
// ids).
func TestIncrementalSpanConcurrentReaders(t *testing.T) {
	g := graph.Gnm(4000, 20000, 77)
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []int32
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf = sv.LabelsInto(buf)
				for v, l := range buf {
					if int(l) > v {
						t.Errorf("label[%d] = %d exceeds vertex id", v, l)
						return
					}
				}
				_ = sv.SameComponent((r+i)%g.N, g.N-1-r)
			}
		}(r)
	}
	for _, batch := range g.SpanBatches(50) {
		if _, err := sv.IngestSpan(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	nat, err := Components(g, WithBackend(BackendNative))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sv.Labels(), nat.Labels) {
		t.Fatal("final span-replayed labels differ from native")
	}
}

// TestServiceIngestSpan: the zero-copy service path equals the boxed
// path and the one-shot native solve, and concurrent LabelsInto
// readers stay consistent during the span-ingest loop.
func TestServiceIngestSpan(t *testing.T) {
	g := graph.Gnm(3000, 12000, 13)
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []int32
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = sv.LabelsInto(buf)
			if len(buf) != g.N {
				t.Errorf("LabelsInto returned %d labels, want %d", len(buf), g.N)
				return
			}
			_ = sv.SameComponent(0, g.N-1)
		}
	}()

	var last *Result
	for _, batch := range g.SpanBatches(20) {
		res, err := sv.IngestSpan(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	close(stop)
	wg.Wait()

	nat, err := Components(g, WithBackend(BackendNative))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(last.Labels, nat.Labels) {
		t.Fatal("IngestSpan labels differ from native")
	}
	if last.NumComponents != nat.NumComponents {
		t.Fatalf("IngestSpan components = %d, native %d", last.NumComponents, nat.NumComponents)
	}
}

// TestServiceIngestSpanErrors: malformed spans are rejected whole
// with the snapshot untouched; non-streaming backends refuse.
func TestServiceIngestSpanErrors(t *testing.T) {
	sv, err := NewService(4, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	before := sv.Snapshot()
	if _, err := sv.IngestSpan(context.Background(), graph.FromPairs([][2]int{{0, 9}})); err == nil {
		t.Fatal("out-of-range span accepted")
	}
	if sv.Snapshot() != before {
		t.Fatal("rejected span advanced the snapshot")
	}

	nat, err := NewService(4, WithBackend(BackendNative))
	if err != nil {
		t.Fatal(err)
	}
	defer nat.Close()
	if _, err := nat.IngestSpan(context.Background(), graph.FromPairs([][2]int{{0, 1}})); err == nil {
		t.Fatal("IngestSpan on a non-streaming backend accepted")
	}
}

// TestServiceIngestRejectsOverflowingEndpoint pins the adapter's
// truncation guard: an endpoint beyond int32 must be rejected as out
// of range, never silently narrowed into an accidentally-valid
// vertex (1<<32 truncates to 0).
func TestServiceIngestRejectsOverflowingEndpoint(t *testing.T) {
	sv, err := NewService(4, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if _, err := sv.Ingest(context.Background(), [][2]int{{1 << 32, 1}}); err == nil {
		t.Fatal("endpoint 1<<32 accepted (silent int32 truncation)")
	}
	if sv.SameComponent(0, 1) {
		t.Fatal("truncated edge was applied")
	}
}

// TestIncrementalAddSpanStats: the per-batch figures a streaming
// caller reads off IngestSpan's Result — batch index (Stats.Rounds),
// components, wall time — track the stream, and IngestSpan on a
// closed service errors.
func TestIncrementalAddSpanStats(t *testing.T) {
	g := graph.Gnm(500, 2000, 5)
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	uf := baseline.NewUnionFind(g.N)
	comps := g.N
	batches := g.SpanBatches(4)
	for i, b := range batches {
		res, err := sv.IngestSpan(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < b.Len(); j++ {
			if uf.Union(b.Edge(j)) {
				comps--
			}
		}
		if res.Stats.Rounds != i+1 || res.NumComponents != comps || res.Stats.Wall <= 0 {
			t.Fatalf("batch %d: rounds=%d components=%d (want %d) wall=%v",
				i, res.Stats.Rounds, res.NumComponents, comps, res.Stats.Wall)
		}
		if res.Stats.Backend != BackendIncremental || sv.Snapshot() != res {
			t.Fatalf("batch %d: backend %v, published snapshot is not the returned Result", i, res.Stats.Backend)
		}
	}
	sv.Close()
	if _, err := sv.IngestSpan(context.Background(), batches[0]); err != ErrSolverClosed {
		t.Fatalf("IngestSpan on a closed service: %v, want ErrSolverClosed", err)
	}
}

// TestLabelsInto: buffer reuse semantics — a big enough buffer is
// reused in place, a short one is replaced, nil allocates — and the
// steady state allocates nothing.
func TestLabelsInto(t *testing.T) {
	g := graph.Gnm(1000, 3000, 9)
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if _, err := sv.IngestSpan(context.Background(), g.Span()); err != nil {
		t.Fatal(err)
	}

	want := sv.Labels()
	buf := make([]int32, 0, g.N)
	got := sv.LabelsInto(buf)
	if !slices.Equal(got, want) {
		t.Fatal("LabelsInto differs from Labels")
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("LabelsInto did not reuse a big-enough buffer")
	}
	if short := sv.LabelsInto(make([]int32, 1)); !slices.Equal(short, want) {
		t.Fatal("LabelsInto with a short buffer differs")
	}
	if fromNil := sv.LabelsInto(nil); !slices.Equal(fromNil, want) {
		t.Fatal("LabelsInto(nil) differs")
	}

	if !raceEnabled {
		if avg := testing.AllocsPerRun(10, func() { got = sv.LabelsInto(got) }); avg != 0 {
			t.Fatalf("steady-state LabelsInto allocates %.1f times, want 0", avg)
		}
	}
}
