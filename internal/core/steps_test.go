package core

import (
	"testing"

	"repro/graph"
	"repro/internal/hashing"
	"repro/internal/pram"
	"repro/internal/vanilla"
)

// newTestState builds a minimal state over g with every vertex an
// ongoing level-1 root, bypassing COMPACT. The levels and the frontier
// come from the constructor Run uses; the boost coin and the table
// hashes keep the tests' own seeds. With every vertex active, a
// vertex's slot is the vertex itself, so the tests index the
// slot-indexed arrays by vertex.
func newTestState(g *graph.Graph, params Params) *state {
	p := params.filled()
	vst := vanilla.NewState(g.N, g.Span(), p.Seed)
	ongoing := make([]bool, g.N)
	for v := range ongoing {
		ongoing[v] = true
	}
	s := newState(pram.New(), p, vst, ongoing, make([]int32, g.N), 16)
	s.coin = pram.Coin{Seed: p.Seed}
	s.fam = hashing.Family{Seed: p.Seed ^ 1}
	return s
}

func TestMaxlinkLinksToHigherLevel(t *testing.T) {
	// 0 - 1 - 2 path; raise ℓ(1). After one MAXLINK, 0 and 2 must both
	// adopt 1 as parent (their neighbour's parent with highest level).
	g := graph.Path(3)
	s := newTestState(g, DefaultParams(1))
	s.level[1] = 2
	s.budget[1] = s.budgets.at(2)
	s.maxlink()
	if s.d.Parent[0] != 1 || s.d.Parent[2] != 1 {
		t.Fatalf("parents = %v, want both linked to 1", s.d.Parent)
	}
	if s.d.Parent[1] != 1 {
		t.Fatal("the high-level vertex must stay a root")
	}
}

func TestMaxlinkNeverLinksEqualLevels(t *testing.T) {
	g := graph.Clique(5)
	s := newTestState(g, DefaultParams(2))
	s.maxlink()
	for v := 0; v < g.N; v++ {
		if s.d.Parent[v] != int32(v) {
			t.Fatalf("vertex %d linked despite equal levels", v)
		}
	}
}

func TestMaxlinkTwoIterationsReachDistance2(t *testing.T) {
	// 0 - 1 - 2 - 3 - 4 with ℓ(4)=2: one MAXLINK links 3 (and the
	// second iteration inside the same call propagates 4's parenthood
	// to 2 via N(2) ∋ 3, since 3.p = 4 has level 2 > ℓ(2)).
	g := graph.Path(5)
	s := newTestState(g, DefaultParams(3))
	s.level[4] = 2
	s.budget[4] = s.budgets.at(2)
	s.maxlink()
	if s.d.Parent[3] != 4 {
		t.Fatalf("3.p = %d, want 4", s.d.Parent[3])
	}
	if s.d.Parent[2] != 4 {
		t.Fatalf("2.p = %d, want 4 after two iterations", s.d.Parent[2])
	}
	// Iteration 2's read phase precedes its writes, so vertex 1 (at
	// distance 3) sees 2's pre-update parent and must NOT link yet —
	// exactly why a round combines MAXLINK with table expansion.
	if s.d.Parent[1] != 1 {
		t.Fatalf("1.p = %d, distance-3 vertices must not link in one call", s.d.Parent[1])
	}
}

func TestMaxlinkSingleIterationShallower(t *testing.T) {
	g := graph.Path(5)
	p := DefaultParams(3)
	p.MaxLinkIters = 1
	s := newTestState(g, p)
	s.level[4] = 2
	s.budget[4] = s.budgets.at(2)
	s.maxlink()
	if s.d.Parent[3] != 4 {
		t.Fatalf("3.p = %d, want 4", s.d.Parent[3])
	}
	if s.d.Parent[1] != 1 {
		t.Fatalf("1.p = %d, one iteration cannot reach distance 3", s.d.Parent[1])
	}
}

func TestMaxlinkPreservesLemma32(t *testing.T) {
	g := graph.Gnm(200, 800, 7)
	s := newTestState(g, DefaultParams(5))
	// Random levels 1..4 (budgets consistent).
	coin := pram.Coin{Seed: 3}
	for v := 0; v < g.N; v++ {
		s.level[v] = int32(1 + coin.Intn(0, uint64(v), 4))
		s.budget[v] = s.budgets.at(s.level[v])
	}
	s.maxlink()
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDedupAddedRemovesDuplicatesAndLoops(t *testing.T) {
	g := graph.Path(4)
	p := DefaultParams(1)
	p.AddedCap = 0.0001 // force dedup
	s := newTestState(g, p)
	for i := 0; i < 500; i++ {
		s.added.Append(1, 2, -1)
		s.added.Append(2, 1, -1)
		s.added.Append(3, 3, -1) // loop: dropped
	}
	s.dedupAdded()
	if s.added.Len() != 2 {
		t.Fatalf("added arcs after dedup = %d, want 2", s.added.Len())
	}
}

func TestDedupAddedKeepsMirrorPairs(t *testing.T) {
	// A forced dedup must leave every distinct edge as an adjacent
	// (u,v),(v,u) pair: remainingGraph walks the store two arcs at a
	// time, so a store sorted by (u,v) would lose {2,3} of a triangle.
	g := graph.New(4)
	p := DefaultParams(1)
	p.AddedCap = 0.0001 // force dedup
	s := newTestState(g, p)
	triangle := [][2]int32{{1, 2}, {2, 3}, {1, 3}}
	for i := 0; i < 400; i++ {
		for _, e := range triangle {
			s.added.Append(e[0], e[1], -1)
			s.added.Append(e[1], e[0], -1)
		}
	}
	s.dedupAdded()
	if s.added.Len() != 2*len(triangle) {
		t.Fatalf("added arcs after dedup = %d, want %d", s.added.Len(), 2*len(triangle))
	}
	for i := 0; i < s.added.Len(); i += 2 {
		if s.added.U[i] != s.added.V[i+1] || s.added.V[i] != s.added.U[i+1] {
			t.Fatalf("arcs %d,%d = (%d,%d),(%d,%d): not a mirror pair", i, i+1,
				s.added.U[i], s.added.V[i], s.added.U[i+1], s.added.V[i+1])
		}
	}
	rem := s.remainingGraph()
	got := map[[2]int32]bool{}
	for i := range rem.U {
		got[[2]int32{rem.U[i], rem.V[i]}] = true
	}
	for _, e := range triangle {
		if !got[e] || !got[[2]int32{e[1], e[0]}] {
			t.Fatalf("edge {%d,%d} missing from the remaining graph", e[0], e[1])
		}
	}
}

func TestDedupAddedNoopUnderLimit(t *testing.T) {
	g := graph.Path(4)
	s := newTestState(g, DefaultParams(1))
	s.added.Append(1, 2, -1)
	s.added.Append(2, 1, -1)
	s.dedupAdded()
	if s.added.Len() != 2 {
		t.Fatal("dedup must not run below the cap")
	}
}

func TestRoundStep3BudgetMatching(t *testing.T) {
	// Two cliques at different levels joined by a bridge: after one
	// round, tables only ever contain same-budget roots (checked via
	// the step-3 filter being observable in the round trace's dormancy
	// pattern — here we drive round() directly and inspect tables).
	g := graph.Barbell(4, 1)
	s := newTestState(g, DefaultParams(9))
	// Left clique at level 2.
	for v := 0; v < 4; v++ {
		s.level[v] = 2
		s.budget[v] = s.budgets.at(2)
	}
	var res Result
	s.round(1, &res)
	for v := 0; v < s.n; v++ {
		tb := s.tables[v]
		if tb == nil {
			continue
		}
		for _, w := range tb.Occupied() {
			if w == int32(v) {
				continue
			}
			if s.budget[w] != s.budget[v] {
				t.Fatalf("table of %d (budget %d) contains %d (budget %d)",
					v, s.budget[v], w, s.budget[w])
			}
		}
	}
}

func TestRoundMaterializesAddedEdges(t *testing.T) {
	g := graph.Clique(6)
	s := newTestState(g, DefaultParams(4))
	var res Result
	s.round(1, &res)
	if s.added.Len() == 0 && res.Trace[0].Dormant < 6 {
		t.Fatal("a clique round must either add edges or mark dormancy")
	}
	// Added arcs must connect same-component vertices.
	for i := 0; i < s.added.Len(); i++ {
		if s.added.Orig[i] != -1 {
			t.Fatal("added arcs must carry orig = -1")
		}
	}
}

func TestBudgetGuardFires(t *testing.T) {
	g := graph.Clique(8)
	p := DefaultParams(2)
	p.SpaceCap = 0.0001 // absurdly small: first expansion trips it
	s := newTestState(g, p)
	var res Result
	s.round(1, &res)
	if !s.overBudget {
		t.Fatal("space guard must fire with SpaceCap ≈ 0")
	}
}

func TestCheckInvariantsDetectsViolation(t *testing.T) {
	g := graph.Path(3)
	s := newTestState(g, DefaultParams(1))
	s.d.Parent[0] = 1 // non-root at equal level: Lemma 3.2 violated
	if err := s.checkInvariants(); err == nil {
		t.Fatal("violation not detected")
	}
	s.level[1] = 2
	if err := s.checkInvariants(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

func TestRemainingGraphDropsLoops(t *testing.T) {
	g := graph.Path(3)
	s := newTestState(g, DefaultParams(1))
	s.d.Parent[0] = 1
	s.level[1] = 2
	s.arcs.Alter(s.m, s.d) // arc (0,1) becomes (1,1): loop
	rem := s.remainingGraph()
	for i := 0; i < len(rem.U); i++ {
		if rem.U[i] == rem.V[i] {
			t.Fatal("remaining graph contains a loop")
		}
	}
}
