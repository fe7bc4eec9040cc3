package ccbase

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestCorrectnessAcrossWorkloadsAndModes(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":     graph.Path(500),
		"cycle":    graph.Cycle(300),
		"star":     graph.Star(256),
		"grid":     graph.Grid2D(20, 25),
		"gnm-x2":   graph.Gnm(3000, 6000, 1),
		"gnm-x16":  graph.Gnm(3000, 48000, 2),
		"beads":    graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 20, Size: 12, IntraDeg: 10, Bridges: 2, Seed: 3}),
		"multi":    graph.DisjointUnion(graph.Path(100), graph.Clique(30), graph.Star(40)),
		"isolated": graph.WithIsolated(graph.Gnm(500, 2000, 4), 50),
	}
	for name, g := range cases {
		for _, mode := range []Mode{ModeArbitrary, ModeCombining} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/mode%d/seed%d", name, mode, seed), func(t *testing.T) {
					p := DefaultParams(seed)
					p.Mode = mode
					res := Run(pram.New(), g, p)
					if res.Failed {
						t.Fatalf("phase cap exhausted after %d phases", res.Phases)
					}
					if err := check.Components(g, res.Labels); err != nil {
						t.Fatalf("phases=%d: %v", res.Phases, err)
					}
				})
			}
		}
	}
}

func TestPhasesDecreaseWithDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed density sweep (~18s) skipped in -short; CI's scheduled full run covers it")
	}
	// The log log_{m/n} n term: aggregate over seeds, denser graphs
	// should not need more phases than much sparser ones.
	n := 20000
	total := func(mult int) int {
		sum := 0
		for seed := uint64(1); seed <= 3; seed++ {
			g := graph.Gnm(n, n*mult, int64(seed))
			res := Run(pram.New(), g, DefaultParams(seed))
			sum += res.Phases
		}
		return sum
	}
	sparse, dense := total(2), total(64)
	if dense > sparse+6 {
		t.Fatalf("denser graphs took more phases: x2→%d, x64→%d", sparse, dense)
	}
}

func TestOngoingShrinksMonotonically(t *testing.T) {
	g := graph.Gnm(10000, 80000, 7)
	res := Run(pram.New(), g, DefaultParams(5))
	prev := 1 << 30
	for i, tr := range res.Trace {
		if tr.Ongoing > prev {
			t.Fatalf("phase %d: ongoing grew %d → %d", i, prev, tr.Ongoing)
		}
		prev = tr.Ongoing
	}
}

func TestExpandRoundsBoundedByLogDiameter(t *testing.T) {
	// Each phase's EXPAND is O(log d) rounds (Lemma B.8). Diameter
	// never grows, so every phase's inner rounds obey the bound of the
	// ORIGINAL diameter (plus slack for the dormancy-propagation tail,
	// which still respects O(log d) asymptotically).
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 64, Size: 12, IntraDeg: 10, Bridges: 2, Seed: 1})
	d := 2 * 64
	res := Run(pram.New(), g, DefaultParams(2))
	bound := 3*log2(d) + 8
	for i, tr := range res.Trace {
		if tr.ExpandRounds > bound {
			t.Fatalf("phase %d: EXPAND took %d rounds, bound %d (d=%d)", i, tr.ExpandRounds, bound, d)
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

func TestCombiningUsesExactCount(t *testing.T) {
	g := graph.Gnm(5000, 20000, 3)
	p := DefaultParams(4)
	p.Mode = ModeCombining
	res := Run(pram.New(), g, p)
	for i, tr := range res.Trace {
		if tr.Estimate != tr.Ongoing {
			t.Fatalf("phase %d: combining mode must use exact count (%d vs %d)",
				i, tr.Estimate, tr.Ongoing)
		}
	}
}

func TestPrepareOnlyOnSparse(t *testing.T) {
	sparse := graph.Gnm(2000, 4000, 1)
	dense := graph.Gnm(2000, 40000, 1)
	rs := Run(pram.New(), sparse, DefaultParams(1))
	rd := Run(pram.New(), dense, DefaultParams(1))
	if rs.Prep == 0 {
		t.Error("PREPARE must run on m/n = 2")
	}
	if rd.Prep != 0 {
		t.Error("PREPARE must be skipped on m/n = 20")
	}
}

// TestParallelWorkers checks a solve on a graph larger than the other
// cases' (the name predates the one-thread simulator).
func TestParallelWorkers(t *testing.T) {
	g := graph.Gnm(20000, 80000, 6)
	res := Run(pram.New(), g, DefaultParams(2))
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCases(t *testing.T) {
	cases := map[string]*graph.Graph{
		"empty":     graph.New(4),
		"oneVertex": graph.New(1),
		"oneEdge":   graph.FromEdges(2, [][2]int{{0, 1}}),
		"loops": func() *graph.Graph {
			g := graph.New(2)
			g.AddEdge(0, 0)
			g.AddEdge(1, 1)
			return g
		}(),
		"parallel": graph.FromEdges(2, [][2]int{{0, 1}, {0, 1}, {1, 0}}),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			res := Run(pram.New(), g, DefaultParams(1))
			if err := check.Components(g, res.Labels); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManySeedsNoFailures(t *testing.T) {
	g := graph.Gnm(2000, 10000, 5)
	failures := 0
	for seed := uint64(1); seed <= 20; seed++ {
		res := Run(pram.New(), g, DefaultParams(seed))
		if res.Failed {
			failures++
		}
		if err := check.Components(g, res.Labels); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if failures > 1 {
		t.Fatalf("%d/20 seeds hit the phase cap", failures)
	}
}
