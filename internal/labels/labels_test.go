package labels

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/graph"
	"repro/internal/pram"
)

func chain(n int) *Digraph {
	d := NewSelfLabeled(n)
	for i := 1; i < n; i++ {
		d.Parent[i] = int32(i - 1)
	}
	return d
}

func TestSelfLabeled(t *testing.T) {
	d := NewSelfLabeled(10)
	for v := int32(0); v < 10; v++ {
		if !d.IsRoot(v) || d.Root(v) != v {
			t.Fatalf("vertex %d not self-labeled", v)
		}
	}
	if d.N() != 10 {
		t.Fatalf("N = %d", d.N())
	}
}

func TestShortcutHalvesDepth(t *testing.T) {
	m := pram.New()
	d := chain(17) // height 16
	iters := 0
	for !d.IsFlat() {
		d.Shortcut(m)
		iters++
		if iters > 10 {
			t.Fatal("shortcut did not converge")
		}
	}
	// ceil(log2(16)) = 4 shortcuts flatten a height-16 chain.
	if iters > 5 {
		t.Fatalf("flattening a height-16 chain took %d shortcuts", iters)
	}
	for v := 0; v < 17; v++ {
		if d.Parent[v] != 0 {
			t.Fatalf("vertex %d not pointing at root", v)
		}
	}
}

func TestShortcutReturnsChangeFlag(t *testing.T) {
	m := pram.New()
	d := chain(5)
	if d.Shortcut(m) == 0 {
		t.Fatal("shortcut on a chain must report changes")
	}
	d.Flatten(m)
	if d.Shortcut(m) != 0 {
		t.Fatal("shortcut on a flat digraph must report no change")
	}
}

func TestFlattenIterationsLogarithmic(t *testing.T) {
	m := pram.New()
	d := chain(1 << 12)
	iters := d.Flatten(m)
	if iters > 14 {
		t.Fatalf("flatten of 4096-chain took %d iterations, want ≈12", iters)
	}
	if !d.IsFlat() {
		t.Fatal("not flat after Flatten")
	}
}

func TestCheckAcyclic(t *testing.T) {
	d := chain(6)
	if err := d.CheckAcyclic(); err != nil {
		t.Fatalf("chain reported cyclic: %v", err)
	}
	d.Parent[0] = 5 // close the cycle
	if err := d.CheckAcyclic(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestCheckAcyclicProperty(t *testing.T) {
	// Random parent assignments where parent[v] < v are always acyclic.
	f := func(raw []uint8) bool {
		n := len(raw) + 1
		d := NewSelfLabeled(n)
		for i := 1; i < n; i++ {
			d.Parent[i] = int32(int(raw[i-1]) % i)
		}
		return d.CheckAcyclic() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRootsOf(t *testing.T) {
	d := NewSelfLabeled(6)
	d.Parent[1] = 0
	d.Parent[2] = 1
	d.Parent[4] = 3
	roots := d.RootsOf()
	want := []int32{0, 0, 0, 3, 3, 5}
	for i, r := range roots {
		if r != want[i] {
			t.Fatalf("RootsOf[%d] = %d, want %d", i, r, want[i])
		}
	}
}

func TestTreeHeights(t *testing.T) {
	d := chain(5)
	byRoot, max := d.TreeHeights()
	if max != 4 || byRoot[0] != 4 {
		t.Fatalf("heights wrong: %v max=%d", byRoot, max)
	}
}

func TestArcStoreAlter(t *testing.T) {
	g := graph.Path(4) // arcs (0,1),(1,0),(1,2),(2,1),(2,3),(3,2)
	a := NewArcStore(g.Span())
	d := NewSelfLabeled(4)
	d.Parent[1] = 0
	d.Parent[3] = 2
	m := pram.New()
	a.Alter(m, d)
	// Arc (1,2) must become (0,2).
	found := false
	for i := 0; i < a.Len(); i++ {
		if a.U[i] == 0 && a.V[i] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("alter did not map arc endpoints to parents")
	}
	// The four arcs that became loops are dropped; the live arcs keep
	// their original indices.
	if a.Len() != 2 || a.Orig[0] != 2 || a.Orig[1] != 3 {
		t.Fatalf("live arcs %v orig %v, want the pair descended from arcs 2 and 3", a.U, a.Orig)
	}
}

// TestAlterDropsLoopsStably checks the host view after ALTER: exactly
// the arcs whose image is a loop are dropped, the rest keep their
// order and their Orig, and mirror pairs stay adjacent.
func TestAlterDropsLoopsStably(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Gnm(60, 150, seed)
		g.AddEdge(5, 5) // an input loop is dropped by the first ALTER too
		a := NewArcStore(g.Span())
		d := NewSelfLabeled(60)
		coin := pram.Coin{Seed: uint64(seed)}
		for v := 1; v < 60; v++ {
			if coin.Bernoulli(0, uint64(v), 0.5) {
				d.Parent[v] = int32(coin.Intn(1, uint64(v), v))
			}
		}
		a.Alter(pram.New(), d)
		k := 0
		for i := range g.U {
			u, v := d.Parent[g.U[i]], d.Parent[g.V[i]]
			if u == v {
				continue
			}
			if k >= a.Len() || a.Orig[k] != int32(i) || a.U[k] != u || a.V[k] != v {
				return false
			}
			k++
		}
		if k != a.Len() || a.Procs() != len(g.U) {
			return false
		}
		for i := 0; i < a.Len(); i += 2 {
			if a.Orig[i]%2 != 0 || a.Orig[i+1] != a.Orig[i]+1 ||
				a.U[i] != a.V[i+1] || a.V[i] != a.U[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestArcStepsChargeDroppedArcs compares a store that dropped its
// loops with one holding the same arcs that never dropped: Alter,
// HasNonLoop and MarkEnds must charge the same Stats and compute the
// same results on both.
func TestArcStepsChargeDroppedArcs(t *testing.T) {
	g := graph.Gnm(200, 600, 3)
	d := NewSelfLabeled(200)
	for v := 1; v < 200; v += 3 {
		d.Parent[v] = int32(v - 1)
	}
	dropped := NewArcStore(g.Span())
	dropped.Alter(pram.New(), d)
	full := &ArcStore{}
	for i := range g.U {
		full.Append(d.Parent[g.U[i]], d.Parent[g.V[i]], int32(i))
	}
	if dropped.Len() >= full.Len() || dropped.Procs() != full.Procs() {
		t.Fatalf("dropped store: %d live of %d charged; full store: %d of %d",
			dropped.Len(), dropped.Procs(), full.Len(), full.Procs())
	}
	d2 := NewSelfLabeled(200)
	for v := 2; v < 200; v += 5 {
		d2.Parent[v] = 0
	}
	run := func(a *ArcStore) (pram.Stats, bool, []int32) {
		m := pram.New()
		a.Alter(m, d2)
		non := a.HasNonLoop(m)
		inc := make([]int32, 200)
		a.MarkEnds(m, inc)
		return m.Stats(), non, inc
	}
	sd, nd, id := run(dropped)
	sf, nf, idf := run(full)
	if sd != sf {
		t.Errorf("dropped store charged %+v, never-dropped store %+v", sd, sf)
	}
	if nd != nf || !slices.Equal(id, idf) {
		t.Error("dropped and never-dropped stores disagree on HasNonLoop or MarkEnds")
	}
}

func TestArcStoreHasNonLoop(t *testing.T) {
	g := graph.Path(3)
	a := NewArcStore(g.Span())
	m := pram.New()
	if !a.HasNonLoop(m) {
		t.Fatal("path arcs are non-loops")
	}
	d := NewSelfLabeled(3)
	d.Parent[1] = 0
	d.Parent[2] = 0
	a.Alter(m, d)
	if a.HasNonLoop(m) {
		t.Fatal("all arcs should be loops after contracting to one root")
	}
}

func TestMarkIncident(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 2) // self-loop must not mark
	a := NewArcStore(g.Span())
	m := pram.New()
	inc := make([]int32, 4)
	a.MarkIncident(m, inc)
	want := []int32{1, 1, 0, 0}
	for i := range want {
		if inc[i] != want[i] {
			t.Fatalf("incident[%d] = %d, want %d", i, inc[i], want[i])
		}
	}
}

func TestAlterPreservesPartitionProperty(t *testing.T) {
	// Alter maps arcs within the union of the graph partition induced
	// by trees: endpoints stay in the same component of (graph ∪ trees).
	f := func(seed int64) bool {
		g := graph.Gnm(50, 100, seed)
		a := NewArcStore(g.Span())
		d := NewSelfLabeled(50)
		// Random valid links: parent to smaller id keeps acyclicity.
		coin := pram.Coin{Seed: uint64(seed)}
		for v := 1; v < 50; v++ {
			if coin.Bernoulli(0, uint64(v), 0.5) {
				d.Parent[v] = int32(coin.Intn(1, uint64(v), v))
			}
		}
		m := pram.New()
		a.Alter(m, d)
		for i := 0; i < a.Len(); i++ {
			o := a.Orig[i]
			if a.U[i] != d.Parent[g.U[o]] || a.V[i] != d.Parent[g.V[o]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
