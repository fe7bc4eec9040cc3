package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

// TestLemma32Invariant runs the full algorithm with per-round
// validation of Lemma 3.2 (acyclic digraph; non-root level strictly
// below parent level) across workload families and seeds.
func TestLemma32Invariant(t *testing.T) {
	cases := map[string]*graph.Graph{
		"beads": graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 24, Size: 16, IntraDeg: 14, Bridges: 2, Seed: 5}),
		"gnm":   graph.Gnm(5000, 40000, 6),
		"grid":  graph.Grid2D(40, 40),
		"path":  graph.Path(2000),
	}
	for name, g := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				p := DefaultParams(seed)
				p.CheckInvariants = true
				res := Run(pram.New(), g, p)
				if res.InvariantErr != nil {
					t.Fatalf("invariant violated: %v", res.InvariantErr)
				}
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBreakConditionMeansDiameterOne: when the repeat loop breaks on
// its own (not the cap), the pre-postprocess digraph must satisfy the
// paper's break state — every component holds at most a bounded
// number of mutually adjacent roots (diameter ≤ 1) and all trees flat.
func TestBreakConditionState(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 32, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 9})
	p := DefaultParams(3)
	p.SkipPostprocess = true
	res := Run(pram.New(), g, p)
	if res.Failed {
		t.Skip("cap exhausted — bad-probability event, not the break path")
	}
	// The labels are roots. Components of the input map onto groups of
	// roots; the paper's Theorem-1 stage then finishes in O(1) diameter.
	oracle := g.ComponentsBFS()
	rootsPerComp := map[int32]map[int32]bool{}
	for v := 0; v < g.N; v++ {
		c := oracle[v]
		if rootsPerComp[c] == nil {
			rootsPerComp[c] = map[int32]bool{}
		}
		rootsPerComp[c][res.Labels[v]] = true
	}
	for c, roots := range rootsPerComp {
		if len(roots) > 8 {
			t.Fatalf("component %d still split across %d roots at break", c, len(roots))
		}
	}
}

func TestBudgetTableMonotoneAndCapped(t *testing.T) {
	bt := newBudgetTable(16, 1.25, 2, 1000)
	prev := int64(0)
	for l := int32(1); l < 64; l++ {
		b := bt.at(l)
		if b < prev {
			t.Fatalf("budget decreased at level %d: %d < %d", l, b, prev)
		}
		if b > bt.cap {
			t.Fatalf("budget exceeds cap at level %d", l)
		}
		prev = b
	}
	if bt.at(0) != 0 {
		t.Fatal("level 0 must have no budget")
	}
	// The cap's table must hold any component: √cap ≥ 2(n+2).
	if ts := tableSize(bt.cap); ts < 2*(1000+2) {
		t.Fatalf("cap table size %d cannot hold all %d vertices", ts, 1000)
	}
}

func TestTableSizeSqrt(t *testing.T) {
	if tableSize(0) != 0 {
		t.Fatal("zero budget must have no table")
	}
	if tableSize(100) != 10 {
		t.Fatalf("tableSize(100) = %d", tableSize(100))
	}
	if tableSize(5) != 4 {
		t.Fatalf("tiny budgets floor at 4, got %d", tableSize(5))
	}
}

func TestSkipPostprocessLabelsAreRoots(t *testing.T) {
	g := graph.Gnm(2000, 16000, 4)
	p := DefaultParams(5)
	p.SkipPostprocess = true
	res := Run(pram.New(), g, p)
	// Labels are parents after flatten: label[label[v]] == label[v].
	for v := 0; v < g.N; v++ {
		l := res.Labels[v]
		if res.Labels[l] != l {
			t.Fatalf("label of %d is not a root", v)
		}
	}
}

func TestMaxRoundsCapStillCorrect(t *testing.T) {
	// Starve the loop: with MaxRounds=1 the postprocessing stage must
	// still deliver correct components (it is a full Theorem-1 run).
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 16, Size: 12, IntraDeg: 10, Bridges: 1, Seed: 2})
	p := DefaultParams(1)
	p.MaxRounds = 1
	res := Run(pram.New(), g, p)
	if !res.Failed {
		t.Log("note: loop finished within 1 round")
	}
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(5)
	res := Run(pram.New(), g, DefaultParams(1))
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopsOnly(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 0)
	g.AddEdge(2, 2)
	res := Run(pram.New(), g, DefaultParams(1))
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestParallelEdges(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 10; i++ {
		g.AddEdge(0, 1)
		g.AddEdge(2, 3)
	}
	res := Run(pram.New(), g, DefaultParams(1))
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicWithSeedSequential(t *testing.T) {
	g := graph.Gnm(1000, 4000, 8)
	p := DefaultParams(77)
	a := Run(pram.New(), g, p)
	b := Run(pram.New(), g, p)
	if a.Rounds != b.Rounds || a.MaxLevel != b.MaxLevel {
		t.Fatalf("sequential runs with same seed diverged: %d/%d vs %d/%d",
			a.Rounds, a.MaxLevel, b.Rounds, b.MaxLevel)
	}
	for v := range a.Labels {
		if a.Labels[v] != b.Labels[v] {
			t.Fatalf("labels diverged at %d", v)
		}
	}
}

// TestParallelWorkersCorrect checks a solve on a graph larger than the
// other cases' (the name predates the one-thread simulator).
func TestParallelWorkersCorrect(t *testing.T) {
	g := graph.Gnm(20000, 100000, 9)
	res := Run(pram.New(), g, DefaultParams(3))
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestLevelsNeverDecreaseAcrossTrace(t *testing.T) {
	g := graph.Gnm(4000, 32000, 10)
	res := Run(pram.New(), g, DefaultParams(5))
	prevMax := int32(0)
	for i, tr := range res.Trace {
		if tr.MaxLevel < prevMax {
			t.Fatalf("round %d: max level decreased %d → %d", i+1, prevMax, tr.MaxLevel)
		}
		prevMax = tr.MaxLevel
	}
}

// TestBudgetTableProperty (property): for any growth γ ∈ (1, 2] and
// any n, the ladder is monotone, starts at b₁ ≥ 4, saturates at the
// cap, and its top table size covers any component.
func TestBudgetTableProperty(t *testing.T) {
	f := func(gRaw uint8, nRaw uint16, b1Raw uint8) bool {
		gamma := 1.05 + float64(gRaw%90)/100.0
		n := int(nRaw)%50000 + 2
		b1 := float64(b1Raw%200) + 4
		bt := newBudgetTable(b1, gamma, 2, n)
		prev := int64(0)
		for l := int32(0); l < 200; l++ {
			b := bt.at(l)
			if b < prev || b > bt.cap {
				return false
			}
			prev = b
		}
		return tableSize(bt.cap) >= 2*n
	}
	// A ladder whose next rung passes 2⁶³ before the cap (b₁ = 5,
	// γ = 1.84, n = 47109) once wrapped to a negative budget.
	if !f(0xb3, 0xb805, 0xc9) {
		t.Fatal("overflowing ladder not capped")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
