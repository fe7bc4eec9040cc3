package uf

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/graph"
)

// contended is a mix that makes many Link calls race on the same
// roots: a star (every edge touches the hub), a permuted path (long
// chains to split), and Gnm at m/n = 4, with self-loops and every
// third edge of the Gnm part repeated.
func contended() *graph.Graph {
	const n = 4000
	g := graph.DisjointUnion(graph.Star(2000), graph.Permuted(graph.Path(3000), 1), graph.Gnm(n, 4*n, 2))
	for v := 0; v < g.N; v += 7 {
		g.AddEdge(v, v)
	}
	off := g.N - n
	for i, e := range graph.Gnm(n, 4*n, 2).Span().Pairs() {
		if i%3 == 0 {
			g.AddEdge(off+e[0], off+e[1])
		}
	}
	return graph.WithIsolated(g, 50)
}

// TestConcurrentLinkKeepsForestInvariant: many goroutines Link the
// edges of a contended mix in a shuffled order while others Find
// random vertices. Afterwards every parent is at most its vertex, Find
// of every vertex is the BFS oracle's minimum-id label, and the Links
// that reported a merge number exactly n minus the component count.
func TestConcurrentLinkKeepsForestInvariant(t *testing.T) {
	g := contended()
	want := g.ComponentsBFS()
	comps := 0
	for v, l := range want {
		if int(l) == v {
			comps++
		}
	}
	edges := g.Span().Pairs()
	const linkers, finders = 16, 4
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for iter := 0; iter < iters; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		parent := make([]int32, g.N)
		for i := range parent {
			parent[i] = int32(i)
		}
		var merges atomic.Int64
		var done atomic.Bool
		var linking, finding sync.WaitGroup
		for w := 0; w < finders; w++ {
			finding.Add(1)
			go func(seed int64) {
				defer finding.Done()
				r := rand.New(rand.NewSource(seed))
				for !done.Load() {
					Find(parent, int32(r.Intn(g.N)))
				}
			}(int64(iter*finders + w))
		}
		for w := 0; w < linkers; w++ {
			linking.Add(1)
			go func(w int) {
				defer linking.Done()
				for i := w; i < len(edges); i += linkers {
					if Link(parent, int32(edges[i][0]), int32(edges[i][1])) {
						merges.Add(1)
					}
				}
			}(w)
		}
		linking.Wait()
		done.Store(true)
		finding.Wait()

		for x, p := range parent {
			if p > int32(x) {
				t.Fatalf("iter %d: parent[%d] = %d > %d", iter, x, p, x)
			}
		}
		for x := range parent {
			if r := Find(parent, int32(x)); r != want[x] {
				t.Fatalf("iter %d: Find(%d) = %d, BFS %d", iter, x, r, want[x])
			}
		}
		if got := merges.Load(); got != int64(g.N-comps) {
			t.Fatalf("iter %d: %d Links merged, want n - components = %d", iter, got, g.N-comps)
		}
	}
}
