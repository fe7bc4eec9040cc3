package spanning

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func verify(t *testing.T, g *graph.Graph, res Result) {
	t.Helper()
	if res.Failed {
		t.Fatalf("phase cap exhausted after %d phases", res.Phases)
	}
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatalf("labels: %v", err)
	}
	if err := check.Forest(g, res.ForestEdges); err != nil {
		t.Fatalf("forest: %v", err)
	}
}

func TestSpanningForestWorkloads(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":     graph.Path(400),
		"cycle":    graph.Cycle(256),
		"star":     graph.Star(200),
		"grid":     graph.Grid2D(18, 22),
		"tree":     graph.RandomTree(500, 2),
		"gnm-x2":   graph.Gnm(2000, 4000, 1),
		"gnm-x16":  graph.Gnm(2000, 32000, 2),
		"beads":    graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 16, Size: 10, IntraDeg: 8, Bridges: 2, Seed: 3}),
		"multi":    graph.DisjointUnion(graph.Path(64), graph.Clique(20), graph.Cycle(30)),
		"isolated": graph.WithIsolated(graph.Clique(10), 20),
		"parallel": graph.FromEdges(3, [][2]int{{0, 1}, {0, 1}, {1, 2}, {1, 2}}),
	}
	for name, g := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				verify(t, g, Run(pram.New(), g, DefaultParams(seed)))
			})
		}
	}
}

func TestForestEdgesAreInputEdges(t *testing.T) {
	g := graph.Gnm(1000, 5000, 9)
	res := Run(pram.New(), g, DefaultParams(7))
	for _, idx := range res.ForestEdges {
		if idx < 0 || idx >= g.NumEdges() {
			t.Fatalf("forest edge index %d out of range", idx)
		}
	}
}

func TestTreeShortcutBounded(t *testing.T) {
	// Lemma C.8: tree heights stay ≤ d, so TREE-SHORTCUT needs only
	// O(log d) iterations.
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 32, Size: 10, IntraDeg: 8, Bridges: 2, Seed: 4})
	res := Run(pram.New(), g, DefaultParams(3))
	d := 2 * 32
	for i, tr := range res.Trace {
		if tr.TreeShortcut > 2*log2(d)+6 {
			t.Fatalf("phase %d: TREE-SHORTCUT took %d iterations (d=%d)", i, tr.TreeShortcut, d)
		}
	}
}

func log2(n int) int {
	l := 0
	for x := 1; x < n; x <<= 1 {
		l++
	}
	return l
}

func TestCombiningMode(t *testing.T) {
	g := graph.Gnm(3000, 15000, 5)
	p := DefaultParams(2)
	p.Mode = 0 // ccbase.ModeCombining
	verify(t, g, Run(pram.New(), g, p))
}

// TestParallelWorkersForest checks a forest on a graph larger than the
// other cases' (the name predates the one-thread simulator).
func TestParallelWorkersForest(t *testing.T) {
	g := graph.Gnm(10000, 40000, 6)
	verify(t, g, Run(pram.New(), g, DefaultParams(4)))
}

func TestManySeedsForestValid(t *testing.T) {
	g := graph.DisjointUnion(
		graph.Gnm(1500, 6000, 7),
		graph.Path(200),
	)
	for seed := uint64(1); seed <= 15; seed++ {
		res := Run(pram.New(), g, DefaultParams(seed))
		verify(t, g, res)
	}
}

func TestEdgeCasesForest(t *testing.T) {
	cases := map[string]*graph.Graph{
		"empty":   graph.New(3),
		"oneEdge": graph.FromEdges(2, [][2]int{{0, 1}}),
		"loops": func() *graph.Graph {
			g := graph.New(2)
			g.AddEdge(0, 0)
			g.AddEdge(0, 1)
			return g
		}(),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			verify(t, g, Run(pram.New(), g, DefaultParams(1)))
		})
	}
}

func TestForestSizeFormula(t *testing.T) {
	// |F| = n − #components on every run (Lemma C.3 consequence).
	for seed := int64(1); seed <= 8; seed++ {
		g := graph.Gnm(800, 1600, seed)
		res := Run(pram.New(), g, DefaultParams(uint64(seed)))
		want := g.N - g.NumComponents()
		if len(res.ForestEdges) != want {
			t.Fatalf("seed %d: forest has %d edges, want %d", seed, len(res.ForestEdges), want)
		}
	}
}
