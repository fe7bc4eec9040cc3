package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPathBasics(t *testing.T) {
	g := Path(5)
	if g.N != 5 || g.NumEdges() != 4 || g.NumArcs() != 8 {
		t.Fatalf("path(5): n=%d m=%d arcs=%d", g.N, g.NumEdges(), g.NumArcs())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Diameter() != 4 {
		t.Fatalf("path(5) diameter = %d", g.Diameter())
	}
}

func TestGeneratorsValidateAndShape(t *testing.T) {
	cases := []struct {
		name       string
		g          *Graph
		n, m, d    int // -1 = skip check
		components int
	}{
		{"path", Path(10), 10, 9, 9, 1},
		{"cycle", Cycle(10), 10, 10, 5, 1},
		{"star", Star(10), 10, 9, 2, 1},
		{"grid", Grid2D(3, 4), 12, 17, 5, 1},
		{"tree", CompleteBinaryTree(15), 15, 14, 6, 1},
		{"clique", Clique(6), 6, 15, 1, 1},
		{"caterpillar", Caterpillar(5, 7), 12, 11, 6, 1},
		{"circulant", Circulant(12, 2), 12, 24, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if tc.g.N != tc.n {
				t.Errorf("n = %d, want %d", tc.g.N, tc.n)
			}
			if tc.m >= 0 && tc.g.NumEdges() != tc.m {
				t.Errorf("m = %d, want %d", tc.g.NumEdges(), tc.m)
			}
			if tc.d >= 0 && tc.g.Diameter() != tc.d {
				t.Errorf("d = %d, want %d", tc.g.Diameter(), tc.d)
			}
			if got := tc.g.NumComponents(); got != tc.components {
				t.Errorf("components = %d, want %d", got, tc.components)
			}
		})
	}
}

func TestGnmShape(t *testing.T) {
	g := Gnm(100, 300, 7)
	if g.N != 100 || g.NumEdges() != 300 {
		t.Fatalf("gnm: n=%d m=%d", g.N, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	g := RandomTree(200, 3)
	if g.NumEdges() != 199 || g.NumComponents() != 1 {
		t.Fatalf("random tree malformed: m=%d comps=%d", g.NumEdges(), g.NumComponents())
	}
}

func TestCliqueBeadsShape(t *testing.T) {
	spec := CliqueBeadsSpec{Beads: 6, Size: 8, IntraDeg: 7, Bridges: 2, Seed: 1}
	g := CliqueBeads(spec)
	if g.N != 48 {
		t.Fatalf("n = %d", g.N)
	}
	if g.NumComponents() != 1 {
		t.Fatal("beads must be connected")
	}
	d := g.Diameter()
	if d < 5 || d > 18 {
		t.Fatalf("beads diameter %d outside expected band", d)
	}
}

func TestDisjointUnionAndIsolated(t *testing.T) {
	g := DisjointUnion(Path(3), Clique(4))
	if g.N != 7 || g.NumComponents() != 2 {
		t.Fatalf("union wrong: n=%d comps=%d", g.N, g.NumComponents())
	}
	g2 := WithIsolated(g, 3)
	if g2.N != 10 || g2.NumComponents() != 5 {
		t.Fatalf("isolated wrong: n=%d comps=%d", g2.N, g2.NumComponents())
	}
}

func TestPermutedIsomorphic(t *testing.T) {
	g := Grid2D(5, 5)
	p := Permuted(g, 9)
	if p.N != g.N || p.NumEdges() != g.NumEdges() {
		t.Fatal("permutation changed size")
	}
	if p.NumComponents() != g.NumComponents() || p.Diameter() != g.Diameter() {
		t.Fatal("permutation changed invariants")
	}
}

func TestNeighborsDegreeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := Gnm(40, 80, seed)
		total := 0
		for v := 0; v < g.N; v++ {
			total += g.Degree(v)
			if len(g.Neighbors(v)) != g.Degree(v) {
				return false
			}
		}
		return total == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(6)
	dist, ecc := g.BFS(0)
	for v := 0; v < 6; v++ {
		if dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d", v, dist[v])
		}
	}
	if ecc != 5 {
		t.Fatalf("ecc = %d", ecc)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := DisjointUnion(Path(3), Path(3))
	dist, _ := g.BFS(0)
	if dist[4] != -1 {
		t.Fatal("unreachable vertex must have distance -1")
	}
}

func TestComponentsBFSLabelsAreMinima(t *testing.T) {
	g := DisjointUnion(Clique(3), Path(4))
	lbl := g.ComponentsBFS()
	for v := 0; v < 3; v++ {
		if lbl[v] != 0 {
			t.Fatalf("clique label %d", lbl[v])
		}
	}
	for v := 3; v < 7; v++ {
		if lbl[v] != 3 {
			t.Fatalf("path label %d", lbl[v])
		}
	}
}

func TestDiameterEstimateLowerBoundsExact(t *testing.T) {
	f := func(seed int64) bool {
		g := Gnm(60, 90, seed)
		return g.DiameterEstimate() <= g.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterEstimateExactOnTrees(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomTree(100, seed)
		if g.DiameterEstimate() != g.Diameter() {
			t.Fatalf("double sweep not exact on tree (seed %d)", seed)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := Gnm(30, 60, 5)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost data: n=%d m=%d", g2.N, g2.NumEdges())
	}
	a, b := g.SortedDedupEdges(), g2.SortedDedupEdges()
	if len(a) != len(b) {
		t.Fatal("edge sets differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"3 1\n5 0\n",   // out of range
		"3 2\n0 1\n",   // header count mismatch
		"3 1\n0 1 2\n", // wrong field count
		"3 1\nx y\n",   // not numbers
		// Header validation: "-5 3" used to panic in graph.New instead
		// of returning an error; counts beyond int32 would let edge
		// endpoints wrap silently.
		"-5 3\n",
		"3 -1\n0 1\n",
		"5000000000 0\n",
		"0 5000000000\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# header\n4 2\n\n0 1\n# mid\n2 3\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.N, g.NumEdges())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Path(3)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.NumEdges() != 2 || c.NumEdges() != 3 {
		t.Fatal("clone not independent")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Path(3)
	g.U[1] = 2 // break the mirror pair
	if err := g.Validate(); err == nil {
		t.Fatal("validate missed broken mirror")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestSortedDedupEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 0)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	es := g.SortedDedupEdges()
	if len(es) != 2 || es[0] != [2]int{0, 1} || es[1] != [2]int{1, 2} {
		t.Fatalf("dedup wrong: %v", es)
	}
}

func TestCSRInvalidatedByAddEdge(t *testing.T) {
	g := Path(3)
	if g.Degree(0) != 1 {
		t.Fatalf("deg(0) = %d", g.Degree(0))
	}
	g.AddEdge(0, 2) // must invalidate the cached CSR
	if g.Degree(0) != 2 {
		t.Fatalf("deg(0) after AddEdge = %d, cache not invalidated", g.Degree(0))
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if g.NumEdges() != 2 || g.NumComponents() != 2 {
		t.Fatalf("FromEdges wrong: m=%d comps=%d", g.NumEdges(), g.NumComponents())
	}
}

// validateTwoPass is the reference Validate: every arc's range first,
// then every mirror pair. The one-pass Validate must return its exact
// error text.
func validateTwoPass(g *Graph) error {
	for i := range g.U {
		if g.U[i] < 0 || int(g.U[i]) >= g.N || g.V[i] < 0 || int(g.V[i]) >= g.N {
			return fmt.Errorf("graph: arc %d = (%d,%d) out of range [0,%d)", i, g.U[i], g.V[i], g.N)
		}
	}
	for i := 0; i < len(g.U); i += 2 {
		if g.U[i] != g.V[i+1] || g.V[i] != g.U[i+1] {
			return fmt.Errorf("graph: arcs %d,%d = (%d,%d),(%d,%d) are not mirrors",
				i, i+1, g.U[i], g.V[i], g.U[i+1], g.V[i+1])
		}
	}
	return nil
}

// TestValidateMatchesTwoPass corrupts random arcs of a valid graph —
// out-of-range values and broken mirrors, one or several at a time —
// and requires Validate's verdict and error text to match the
// reference check.
func TestValidateMatchesTwoPass(t *testing.T) {
	base := Gnm(50, 200, 7)
	rng := rand.New(rand.NewSource(1))
	bad := []int32{-1, 50, 51, math.MaxInt32, math.MinInt32}
	for trial := 0; trial < 2000; trial++ {
		g := base.Clone()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			col := g.U
			if rng.Intn(2) == 0 {
				col = g.V
			}
			i := rng.Intn(len(col))
			if rng.Intn(2) == 0 {
				col[i] = bad[rng.Intn(len(bad))]
			} else {
				col[i] = int32(rng.Intn(g.N))
			}
		}
		got, want := g.Validate(), validateTwoPass(g)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d: Validate = %v, want %v", trial, got, want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
}
