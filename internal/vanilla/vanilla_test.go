package vanilla

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestVanillaCorrectness(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":     graph.Path(200),
		"cycle":    graph.Cycle(128),
		"star":     graph.Star(100),
		"gnm":      graph.Gnm(1000, 3000, 3),
		"multi":    graph.DisjointUnion(graph.Path(40), graph.Clique(10), graph.Star(25)),
		"isolated": graph.WithIsolated(graph.Clique(5), 7),
		"loops": func() *graph.Graph {
			g := graph.Path(6)
			g.AddEdge(2, 2)
			return g
		}(),
	}
	for name, g := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				res := Run(pram.New(), g, seed, 0)
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("phases=%d: %v", res.Phases, err)
				}
			})
		}
	}
}

func TestVanillaPhasesLogarithmic(t *testing.T) {
	// Corollary B.4: O(log n) phases w.h.p. Allow a generous constant.
	for _, n := range []int{256, 1024, 4096} {
		g := graph.Path(n)
		res := Run(pram.New(), g, 7, 0)
		bound := 6*log2(n) + 10
		if res.Phases > bound {
			t.Fatalf("n=%d: %d phases > bound %d", n, res.Phases, bound)
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

func TestVanillaFlatAtPhaseStart(t *testing.T) {
	// Lemma B.2: trees are flat at the start of every phase.
	g := graph.Gnm(500, 1500, 9)
	s := NewState(g.N, g.Span(), 3)
	m := pram.New()
	for i := 0; i < 20; i++ {
		if !s.D.IsFlat() {
			t.Fatalf("digraph not flat before phase %d", i)
		}
		if err := s.D.CheckAcyclic(); err != nil {
			t.Fatalf("phase %d: %v", i, err)
		}
		if !s.RunPhase(m) {
			break
		}
	}
}

func TestVanillaMonotone(t *testing.T) {
	// Monotonicity (§2.1): the partition only coarsens; two vertices in
	// the same tree stay in the same tree.
	g := graph.Gnm(300, 900, 11)
	s := NewState(g.N, g.Span(), 5)
	m := pram.New()
	prev := s.D.RootsOf()
	for i := 0; i < 20; i++ {
		if !s.RunPhase(m) {
			break
		}
		cur := s.D.RootsOf()
		// Every previous group must be contained in a current group.
		rep := make(map[int32]int32)
		for v := 0; v < g.N; v++ {
			if r, ok := rep[prev[v]]; ok {
				if cur[v] != r {
					t.Fatalf("phase %d: tree split — vertices with old root %d now have roots %d and %d",
						i, prev[v], r, cur[v])
				}
			} else {
				rep[prev[v]] = cur[v]
			}
		}
		prev = cur
	}
}

func TestVanillaSFCorrectAndValid(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":  graph.Path(128),
		"gnm":   graph.Gnm(800, 2400, 3),
		"multi": graph.DisjointUnion(graph.Cycle(50), graph.Clique(12)),
		"grid":  graph.Grid2D(12, 12),
	}
	for name, g := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				res := RunSF(pram.New(), g, seed, 0)
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("labels: %v", err)
				}
				if err := check.Forest(g, res.ForestEdges); err != nil {
					t.Fatalf("forest: %v", err)
				}
			})
		}
	}
}

func TestVanillaSFForestGrowsMonotonically(t *testing.T) {
	g := graph.Gnm(400, 1200, 13)
	s := NewSFState(g.N, g.Span(), 2)
	m := pram.New()
	prevMarks := 0
	for i := 0; i < 30; i++ {
		cont := s.RunPhase(m)
		marks := 0
		for _, f := range s.ForestArc {
			if f {
				marks++
			}
		}
		if marks < prevMarks {
			t.Fatal("forest marks disappeared")
		}
		prevMarks = marks
		if !cont {
			break
		}
	}
}

func TestVanillaEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		g := graph.New(n)
		res := Run(pram.New(), g, 1, 0)
		if err := check.Components(g, res.Labels); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	g := graph.New(2)
	g.AddEdge(0, 1)
	res := Run(pram.New(), g, 1, 0)
	if res.Labels[0] != res.Labels[1] {
		t.Fatal("single edge not contracted")
	}
}

// TestLeaderIsHalfCoin pins leader's top-bit shortcut to the coin it
// stands for.
func TestLeaderIsHalfCoin(t *testing.T) {
	c := pram.Coin{Seed: 12345}
	for phase := uint64(0); phase < 4; phase++ {
		for u := int32(0); u < 5000; u++ {
			if leader(c, phase, u) != c.Bernoulli(phase, uint64(u), 0.5) {
				t.Fatalf("phase %d vertex %d: leader disagrees with Bernoulli(1/2)", phase, u)
			}
		}
	}
}

// TestVanillaArcsStayMirrorPairs checks the invariant LINK's pair sweep
// rests on: through every phase of a run, the live view holds whole
// mirror pairs, arc 2k+1 being arc 2k reversed, and an input pair keeps
// its two original arcs adjacent.
func TestVanillaArcsStayMirrorPairs(t *testing.T) {
	multi := graph.New(6)
	multi.AddEdge(0, 1)
	multi.AddEdge(0, 1)
	multi.AddEdge(1, 0)
	multi.AddEdge(2, 3)
	loops := graph.Path(40)
	loops.AddEdge(5, 5)
	loops.AddEdge(0, 0)
	loops.AddEdge(39, 39)
	cases := map[string]*graph.Graph{
		"gnm":      graph.Gnm(2000, 3000, 4),
		"path":     graph.Permuted(graph.Path(1500), 2),
		"loops":    loops,
		"multi":    multi,
		"isolated": graph.WithIsolated(graph.DisjointUnion(graph.Clique(8), graph.Cycle(30)), 25),
		"no-edges": graph.New(50),
	}
	for name, g := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			s := NewState(g.N, g.Span(), seed)
			m := pram.New()
			for more := true; ; more = s.RunPhase(m) {
				a := s.Arcs
				if a.Len()%2 != 0 {
					t.Fatalf("%s/seed%d phase %d: odd live view of %d arcs", name, seed, s.Phase, a.Len())
				}
				for k := 0; k+1 < a.Len(); k += 2 {
					if a.U[k+1] != a.V[k] || a.V[k+1] != a.U[k] {
						t.Fatalf("%s/seed%d phase %d: arcs %d,%d = (%d,%d),(%d,%d) are not mirrors",
							name, seed, s.Phase, k, k+1, a.U[k], a.V[k], a.U[k+1], a.V[k+1])
					}
					if a.Orig[k]%2 != 0 || a.Orig[k+1] != a.Orig[k]+1 {
						t.Fatalf("%s/seed%d phase %d: arcs %d,%d descend from input arcs %d,%d",
							name, seed, s.Phase, k, k+1, a.Orig[k], a.Orig[k+1])
					}
				}
				if !more {
					break
				}
				if s.Phase == defaultPhaseCap(g.N) {
					t.Fatalf("%s/seed%d: arcs still live after %d phases", name, seed, s.Phase)
				}
			}
			if err := check.Components(g, s.D.RootsOf()); err != nil {
				t.Fatalf("%s/seed%d: %v", name, seed, err)
			}
		}
	}
}
