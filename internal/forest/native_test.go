package forest

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

func requireOracle(t *testing.T, g *graph.Graph, labels []int32) {
	t.Helper()
	if err := check.Components(g, labels); err != nil {
		t.Fatal(err)
	}
}

// requireLabels fails unless labels equal want, the BFS oracle's
// minimum-id labels, elementwise.
func requireLabels(t *testing.T, what string, want, labels []int32) {
	t.Helper()
	for v, l := range labels {
		if l != want[v] {
			t.Fatalf("%s: label[%d] = %d, BFS %d", what, v, l, want[v])
		}
	}
}

// result is a one-shot solve's labeling and statistics.
type result struct {
	Labels  []int32
	Rounds  int
	Workers int
}

// components solves g one-shot: a fresh engine (and worker pool) is
// built and torn down around a single Run.
func components(g *graph.Graph, opt Options) *result {
	e := New(0, opt)
	defer e.Close()
	labels := make([]int32, g.N)
	rounds, _ := e.Run(context.Background(), g, labels)
	return &result{Labels: labels, Rounds: rounds, Workers: e.Workers()}
}

func TestSmallGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New(0)},
		{"isolated", graph.New(5)},
		{"single-edge", graph.FromEdges(2, [][2]int{{0, 1}})},
		{"self-loops", graph.FromEdges(3, [][2]int{{0, 0}, {1, 1}, {0, 1}})},
		{"parallel-edges", graph.FromEdges(3, [][2]int{{0, 1}, {0, 1}, {1, 2}})},
		{"path", graph.Path(17)},
		{"cycle", graph.Cycle(12)},
		{"star", graph.Star(9)},
		{"two-comps", graph.DisjointUnion(graph.Path(6), graph.Clique(5))},
		{"with-isolated", graph.WithIsolated(graph.Grid2D(4, 5), 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := components(tc.g, Options{})
			requireOracle(t, tc.g, res.Labels)
			if len(res.Labels) != tc.g.N {
				t.Fatalf("got %d labels for %d vertices", len(res.Labels), tc.g.N)
			}
		})
	}
}

// TestMinLabelRepresentatives: the CAS-min discipline converges to the
// minimum vertex id of each component, giving canonical labels.
func TestMinLabelRepresentatives(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(10), graph.Star(7), graph.Path(4))
	res := components(g, Options{})
	uf := baseline.Components(g)
	min := map[int32]int32{}
	for v, r := range uf {
		if cur, ok := min[r]; !ok || int32(v) < cur {
			min[r] = int32(v)
		}
	}
	for v := range res.Labels {
		if want := min[uf[v]]; res.Labels[v] != want {
			t.Fatalf("vertex %d: label %d, want component minimum %d", v, res.Labels[v], want)
		}
	}
}

// TestWorkersSweep: every worker count induces the same partition as
// the sequential union-find oracle.
func TestWorkersSweep(t *testing.T) {
	gs := []*graph.Graph{
		graph.Gnm(5000, 20000, 1),
		graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 64, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 2}),
		graph.Permuted(graph.Grid2D(40, 50), 3),
	}
	for _, g := range gs {
		oracle := baseline.Components(g)
		for _, w := range []int{1, 2, 3, 7, 16} {
			res := components(g, Options{Workers: w})
			if res.Workers != w {
				t.Fatalf("workers=%d: resolved to %d", w, res.Workers)
			}
			if err := check.SamePartition(res.Labels, oracle); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
		}
	}
}

// TestRaceStress hammers the CAS paths with heavy contention: a
// high-diameter workload (long shortcut chains) and a dense one (many
// conflicting links), repeatedly, with more workers than cores. Run
// under -race this is the engine's memory-model check.
func TestRaceStress(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(30000),
		graph.Gnm(20000, 120000, 11),
		graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 256, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 12}),
	}
	iters := 5
	if testing.Short() {
		iters = 2
	}
	for _, g := range gs {
		oracle := baseline.Components(g)
		for i := 0; i < iters; i++ {
			res := components(g, Options{Workers: 32})
			if err := check.SamePartition(res.Labels, oracle); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
	}
}

// TestRoundsAreFew: the root-linking round solves a path of any
// diameter on its own — the whole point over naive label propagation.
func TestRoundsAreFew(t *testing.T) {
	g := graph.Path(100000)
	res := components(g, Options{})
	requireOracle(t, g, res.Labels)
	if res.Rounds != 1 {
		t.Fatalf("path-100000 took %d rounds, want 1", res.Rounds)
	}
}

// sortedGnm is Gnm(n, m, seed) with its edges sorted by endpoints,
// duplicates kept, so m stays exact: a block of consecutive edges then
// holds the edges of a few consecutive vertices.
func sortedGnm(n, m int, seed int64) *graph.Graph {
	edges := graph.Gnm(n, m, seed).Span().Pairs()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return graph.FromEdges(n, edges)
}

// TestRootLinkRoundIsExact: the root-linking round is the whole solve —
// one round whose labels equal the BFS oracle's minimum-id labels on
// every worker count and grain, with no verification round behind it
// to catch a wrong one. The Gnm densities straddle the sampling cutoff
// m ≥ 2.5n, so both forms of the round run; the sampled ones include
// edge-sorted inputs, whose sample blocks each cover a few consecutive
// vertices, and a last block that is sampled but not full.
func TestRootLinkRoundIsExact(t *testing.T) {
	const n = 1000
	messy := graph.WithIsolated(graph.Gnm(n, 2*n, 31), 40)
	for i := 0; i < n; i += 3 {
		messy.AddEdge(i, i)         // self-loop
		messy.AddEdge(i, (i*5+1)%n) // and the same edge twice
		messy.AddEdge(i, (i*5+1)%n)
	}
	dense := graph.Gnm(n, 10*n, 39)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-m/n=1", graph.Gnm(n, n, 32)},
		{"gnm-m/n=2", graph.Gnm(n, 2*n, 33)},
		{"gnm-m/n=2.5", graph.Gnm(n, 5*n/2, 34)},
		{"gnm-m/n=10", graph.Gnm(n, 10*n, 35)},
		{"path-permuted", graph.Permuted(graph.Path(3000), 36)},
		{"star", graph.Star(500)},
		{"clique-beads", graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 32, Size: 16, IntraDeg: 8, Bridges: 2, Seed: 37})},
		{"rmat", graph.RMAT(1<<11, 1<<14, 38)},
		{"loops-multi-isolated", messy},
		{"isolated", graph.WithIsolated(graph.Path(50), 200)},
		{"empty", graph.New(0)},
		{"gnm-sorted-m/n=10", graph.FromEdges(n, dense.SortedDedupEdges())},
		{"gnm-partial-last-block", graph.Gnm(n, 12*blockEdges+5, 40)},
		{"gnm-sorted-m/n=2.5", sortedGnm(n, 5*n/2, 41)},
	}
	for _, tc := range cases {
		g := tc.g
		want := g.ComponentsBFS()
		wantRounds := min(g.NumEdges(), 1)
		for _, workers := range []int{1, 2, 4, 32} {
			for _, grain := range []int{0, 1, 7} {
				res := components(g, Options{Workers: workers, Grain: grain})
				requireLabels(t, fmt.Sprintf("%s workers=%d grain=%d",
					tc.name, workers, grain), want, res.Labels)
				if res.Rounds != wantRounds {
					t.Fatalf("%s workers=%d grain=%d: %d rounds, want %d",
						tc.name, workers, grain, res.Rounds, wantRounds)
				}
			}
		}
	}
}

func BenchmarkNativeGnm(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		components(g, Options{})
	}
}

// BenchmarkNativeGnmSorted is BenchmarkNativeGnm's graph with its
// edges sorted: each sample block then covers a few consecutive
// vertices instead of a spread of random ones.
func BenchmarkNativeGnmSorted(b *testing.B) {
	g0 := graph.Gnm(100000, 400000, 42)
	g := graph.FromEdges(g0.N, g0.SortedDedupEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		components(g, Options{})
	}
}

func BenchmarkNativeHighDiameter(b *testing.B) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 1024, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		components(g, Options{})
	}
}

// TestEngineReuse: a long-lived Engine must match the oracle across
// repeated runs on differently-sized graphs, with the caller-owned
// label buffer regrown as needed.
func TestEngineReuse(t *testing.T) {
	e := New(0, Options{Workers: 3})
	defer e.Close()
	graphs := []*graph.Graph{
		graph.Gnm(2000, 6000, 1),
		graph.Path(301),
		graph.Gnm(5000, 1000, 2),
		graph.Clique(64),
	}
	var labels []int32
	for i, g := range graphs {
		if cap(labels) >= g.N {
			labels = labels[:g.N]
		} else {
			labels = make([]int32, g.N)
		}
		rounds, err := e.Run(context.Background(), g, labels)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if g.NumEdges() > 0 && rounds == 0 {
			t.Fatalf("graph %d: zero rounds", i)
		}
		requireOracle(t, g, labels)
		if err := check.SamePartition(labels, baseline.Components(g)); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

// TestEngineRunCancellation: a cancelled context aborts Run at a round
// boundary with ctx.Err(), and the engine stays usable.
func TestEngineRunCancellation(t *testing.T) {
	e := New(0, Options{Workers: 2})
	defer e.Close()
	g := graph.Gnm(3000, 9000, 4)
	labels := make([]int32, g.N)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, g, labels); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if _, err := e.Run(context.Background(), g, labels); err != nil {
		t.Fatal(err)
	}
	requireOracle(t, g, labels)
}

// cancelAfterFirstCheck is a context whose Err reports nil on its
// first call and context.Canceled on every later one.
type cancelAfterFirstCheck struct {
	context.Context
	checks atomic.Int32
}

func (c *cancelAfterFirstCheck) Err() error {
	if c.checks.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestEngineRunCancelledDuringOnlyRound: a root-linking solve is one
// round, so a context cancelled after Run's check before that round
// must still be seen, by the check at the round's end; the engine then
// solves exactly.
func TestEngineRunCancelledDuringOnlyRound(t *testing.T) {
	e := New(0, Options{Workers: 2})
	defer e.Close()
	g := graph.Gnm(3000, 9000, 4)
	labels := make([]int32, g.N)
	rounds, err := e.Run(&cancelAfterFirstCheck{Context: context.Background()}, g, labels)
	if err != context.Canceled || rounds != 1 {
		t.Fatalf("Run = (%d, %v), want (1, context.Canceled)", rounds, err)
	}
	rounds, err = e.Run(context.Background(), g, labels)
	if err != nil || rounds != 1 {
		t.Fatalf("Run = (%d, %v), want (1, nil)", rounds, err)
	}
	requireLabels(t, "after the cancelled run", g.ComponentsBFS(), labels)
}

// TestEngineRunBadBuffer: a mis-sized label buffer is a programming
// error and must panic loudly, not corrupt memory.
func TestEngineRunBadBuffer(t *testing.T) {
	e := New(0, Options{Workers: 1})
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a short label buffer")
		}
	}()
	_, _ = e.Run(context.Background(), graph.Path(10), make([]int32, 3))
}

// TestEngineFirstRunZeroAlloc: Run allocates nothing, not even on a
// fresh engine's first call — the sweeps read the graph's own arc
// column, and the pool's claim state is sized when the pool is built.
// AllocsPerRun warms up with one call before it counts, so every call
// takes an engine of its own, built outside the measured function.
func TestEngineFirstRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 3
	g := graph.Gnm(20000, 60000, 1)
	labels := make([]int32, g.N)
	engines := make([]*Engine, runs+1) // +1 for AllocsPerRun's warm-up call
	for i := range engines {
		engines[i] = New(0, Options{Workers: 2})
		defer engines[i].Close()
	}
	ctx := context.Background()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		e := engines[next]
		next++
		if _, err := e.Run(ctx, g, labels); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("first Run on a fresh engine allocates %.1f objects, want 0", allocs)
	}
	requireOracle(t, g, labels)
}

// TestSampledFirstRound: the sample → shortcut → finish first round
// and the single root-link sweep below its cutoff both yield exactly
// the BFS oracle's minimum-id labels, on every worker count and grain.
// The graphs straddle the cutoff m ≥ 2.5n (stride ≥ 2), put self-loops,
// multi-edges and isolated vertices into a sampled graph, and include
// an ordered circulant, whose stride-s sample hits the same few
// offsets of every vertex, next to its permuted copy.
func TestSampledFirstRound(t *testing.T) {
	const n = 1000
	messy := graph.WithIsolated(graph.Gnm(n, n, 21), 50)
	for i := 0; i < n; i++ {
		messy.AddEdge(i, i)         // self-loop
		messy.AddEdge(i, (i*7+3)%n) // and the same edge twice
		messy.AddEdge(i, (i*7+3)%n)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		sample bool
	}{
		{"below-cutoff", graph.Gnm(n, 5*n/2-1, 22), false},
		{"at-cutoff", graph.Gnm(n, 5*n/2, 22), true},
		{"loops-multi-isolated", messy, true},
		{"circulant", graph.Circulant(2000, 10), true},
		{"circulant-permuted", graph.Permuted(graph.Circulant(2000, 10), 23), true},
		{"rmat", graph.RMAT(1<<11, 1<<14, 24), true},
		{"star", graph.Star(500), false},
		{"empty", graph.New(0), false},
	}
	for _, tc := range cases {
		g := tc.g
		if s := sampleStride(max(g.N, 1), g.NumEdges()); (s >= 2) != tc.sample {
			t.Fatalf("%s: n=%d m=%d gives stride %d, want sampled=%v", tc.name, g.N, g.NumEdges(), s, tc.sample)
		}
		want := g.ComponentsBFS()
		for _, workers := range []int{1, 2, 4} {
			for _, grain := range []int{0, 1, 7} {
				res := components(g, Options{Workers: workers, Grain: grain})
				requireLabels(t, fmt.Sprintf("%s workers=%d grain=%d", tc.name, workers, grain), want, res.Labels)
			}
		}
	}
	g := graph.Gnm(50000, 500000, 25)
	if res := components(g, Options{}); res.Rounds != 1 {
		t.Fatalf("Gnm(5e4, 5e5) took %d rounds, want 1 (the sampled round alone)", res.Rounds)
	}
}
