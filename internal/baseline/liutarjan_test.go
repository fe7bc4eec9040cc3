package baseline

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestLiuTarjanFamilyCorrect(t *testing.T) {
	gs := map[string]*graph.Graph{
		"path":    graph.Path(200),
		"star":    graph.Star(150),
		"grid":    graph.Grid2D(12, 14),
		"gnm":     graph.Gnm(800, 3200, 1),
		"multi":   graph.DisjointUnion(graph.Clique(15), graph.Path(40), graph.Star(25)),
		"permut":  graph.Permuted(graph.Cycle(123), 9),
		"loops":   graph.FromEdges(3, [][2]int{{0, 0}, {0, 1}, {2, 2}}),
		"barbell": graph.Barbell(10, 15),
	}
	for _, v := range LTVariants() {
		for gname, g := range gs {
			t.Run(fmt.Sprintf("%s/%s", v.Name, gname), func(t *testing.T) {
				res := LiuTarjan(pram.New(), g, v)
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("rounds=%d: %v", res.Rounds, err)
				}
			})
		}
	}
}

func TestLiuTarjanVariantByName(t *testing.T) {
	v, err := LTVariantByName("PFA")
	if err != nil || v.Name != "PFA" {
		t.Fatalf("lookup failed: %v %v", v, err)
	}
	if _, err := LTVariantByName("nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestLiuTarjanAlterAccelerates(t *testing.T) {
	// Altering variants contract distances so they never need more
	// rounds than their non-altering counterparts on a path (extended
	// links plus shortcut already give pointer-doubling behaviour, so
	// both are O(log n)-ish; alter only helps).
	g := graph.Path(256)
	e := LiuTarjan(pram.New(), g, LTVariant{"E", LinkExtended, ShortcutOne, false})
	ea := LiuTarjan(pram.New(), g, LTVariant{"EA", LinkExtended, ShortcutOne, true})
	if ea.Rounds > e.Rounds {
		t.Fatalf("alter must not slow a path down: EA=%d E=%d", ea.Rounds, e.Rounds)
	}
	if e.Rounds > 6*log2(256)+8 {
		t.Fatalf("extended link with shortcut should be polylogarithmic on a path: %d rounds", e.Rounds)
	}
}

func TestLiuTarjanFullShortcutFewerRounds(t *testing.T) {
	// Repeat-to-root shortcuts never take more rounds than single
	// shortcuts for the same link rule (they do strictly more work per
	// round).
	g := graph.Gnm(2000, 6000, 3)
	pa := LiuTarjan(pram.New(), g, LTVariant{"PA", LinkParent, ShortcutOne, true})
	pfa := LiuTarjan(pram.New(), g, LTVariant{"PFA", LinkParent, ShortcutFull, true})
	if pfa.Rounds > pa.Rounds+2 {
		t.Fatalf("full shortcut took more rounds: PFA=%d PA=%d", pfa.Rounds, pa.Rounds)
	}
}

func TestLiuTarjanDeterministic(t *testing.T) {
	g := graph.Gnm(500, 1500, 5)
	a := LiuTarjan(pram.New(), g, LTVariants()[1])
	b := LiuTarjan(pram.New(), g, LTVariants()[1])
	if a.Rounds != b.Rounds {
		t.Fatal("deterministic variant diverged")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels diverged")
		}
	}
}

// TestLiuTarjanParallelWorkers checks two variants on a graph larger
// than the other cases' (the name predates the one-thread simulator).
func TestLiuTarjanParallelWorkers(t *testing.T) {
	g := graph.Gnm(5000, 20000, 7)
	for _, v := range []LTVariant{LTVariants()[1], LTVariants()[7]} {
		res := LiuTarjan(pram.New(), g, v)
		if err := check.Components(g, res.Labels); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
	}
}

func TestLiuTarjanAcyclicAlways(t *testing.T) {
	// Run a few rounds manually via the fixed point and check the final
	// parents have no nontrivial cycles (strictly-decreasing pointers).
	g := graph.ChungLu(600, 2400, 2.3, 11)
	for _, v := range LTVariants() {
		res := LiuTarjan(pram.New(), g, v)
		seen := make([]int8, g.N)
		for s := 0; s < g.N; s++ {
			x := int32(s)
			for steps := 0; res.Labels[x] != x; steps++ {
				x = res.Labels[x]
				if steps > g.N {
					t.Fatalf("%s: label cycle detected", v.Name)
				}
			}
			seen[x] = 1
		}
	}
}
