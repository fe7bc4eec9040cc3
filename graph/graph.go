// Package graph provides the undirected-graph substrate used by the
// pramcc algorithms: a compact arc-pair representation, a CSR adjacency
// view, breadth-first search, diameter estimation, and a collection of
// workload generators that let experiments control the number of
// vertices n, the number of edges m, and the maximum component diameter
// d independently — the three parameters that drive every bound in the
// paper (O(log d + log log_{m/n} n) time, O(m) processors).
//
// It also owns graph I/O: a text edge-list format (WriteEdgeList /
// ReadEdgeList / ReadEdgeListParallel) and a binary format
// (WriteBinary / ReadBinary), with ReadAuto detecting which one a file
// is. ReadEdgeListParallel and ReadBinary are the bulk-ingestion path
// (experiment E13); ReadEdgeList is the streaming reference parser
// the parallel loader is fuzz-checked against.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an undirected multigraph on vertices 0..N-1. Each undirected
// edge {v,w} is stored as a pair of oppositely directed arcs (v,w) and
// (w,v), mirroring the paper's convention (§2.2). Self-loops are allowed
// and stored as a single arc pair as well.
type Graph struct {
	N int // number of vertices

	// U and V are parallel slices: arc i is (U[i], V[i]).
	// Arcs come in mirror pairs: arc 2k is (u,v), arc 2k+1 is (v,u).
	U, V []int32

	csrOffsets []int32 // lazily built CSR index into csrTargets
	csrTargets []int32
}

// NumEdges returns the number of undirected edges (arc pairs).
//
//pramcc:zeroalloc
func (g *Graph) NumEdges() int { return len(g.U) / 2 }

// NumArcs returns the number of directed arcs (2 per undirected edge).
func (g *Graph) NumArcs() int { return len(g.U) }

// AddEdge appends the undirected edge {v,w} as a mirror pair of arcs.
// It panics if either endpoint is out of range, since a malformed
// workload is a programming error rather than a runtime condition.
func (g *Graph) AddEdge(v, w int) {
	if v < 0 || v >= g.N || w < 0 || w >= g.N {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", v, w, g.N))
	}
	g.U = append(g.U, int32(v), int32(w))
	g.V = append(g.V, int32(w), int32(v))
	g.csrOffsets = nil
	g.csrTargets = nil
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{N: n}
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	g.U = make([]int32, 0, 2*len(edges))
	g.V = make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// Clone returns a deep copy of the graph's arc lists. The CSR cache is
// not copied; it is rebuilt on demand.
func (g *Graph) Clone() *Graph {
	return &Graph{N: g.N, U: slices.Clone(g.U), V: slices.Clone(g.V)}
}

// buildCSR constructs the adjacency index. Arcs already encode both
// directions, so a single counting pass suffices.
func (g *Graph) buildCSR() {
	offsets := make([]int32, g.N+1)
	for _, u := range g.U {
		offsets[u+1]++
	}
	for i := 0; i < g.N; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]int32, len(g.U))
	cursor := make([]int32, g.N)
	copy(cursor, offsets[:g.N])
	for i, u := range g.U {
		targets[cursor[u]] = g.V[i]
		cursor[u]++
	}
	g.csrOffsets = offsets
	g.csrTargets = targets
}

// Neighbors returns the adjacency list of v (shared backing array; do
// not modify). Duplicates appear as many times as parallel edges exist.
func (g *Graph) Neighbors(v int) []int32 {
	if g.csrOffsets == nil {
		g.buildCSR()
	}
	return g.csrTargets[g.csrOffsets[v]:g.csrOffsets[v+1]]
}

// Degree returns the number of arcs leaving v.
func (g *Graph) Degree(v int) int {
	if g.csrOffsets == nil {
		g.buildCSR()
	}
	return int(g.csrOffsets[v+1] - g.csrOffsets[v])
}

// Validate checks structural invariants: every arc in range, and arcs
// forming mirror pairs. It returns a descriptive error on violation.
//
// The simulated solvers call it before they run; the parallel engine
// runs the same pair check sharded on its worker pool and calls
// Validate only to build the error, so every backend rejects a graph
// with this text. The check is one pass over the arc pairs: pair
// (2k, 2k+1) is valid exactly when U[2k] and U[2k+1] are in range and
// V mirrors them, and matching mirrors put V in range too. The first
// failing pair hands over to validateFrom, which produces the error.
func (g *Graph) Validate() error {
	if len(g.U) != len(g.V) {
		return fmt.Errorf("graph: arc slices have different lengths %d, %d", len(g.U), len(g.V))
	}
	if len(g.U)%2 != 0 {
		return fmt.Errorf("graph: odd arc count %d, arcs must come in mirror pairs", len(g.U))
	}
	U, V, n := g.U, g.V[:len(g.U)], uint(g.N)
	for i := 0; i+1 < len(U); i += 2 {
		u, v := U[i], U[i+1]
		if uint(u) >= n || uint(v) >= n || V[i] != v || V[i+1] != u {
			return g.validateFrom(i)
		}
	}
	return nil
}

// validateFrom builds Validate's error once pair (i, i+1) has failed
// and every arc before i is known good: the first out-of-range arc
// from i on wins over the first broken mirror pair, as in a check that
// tests all ranges before any mirror.
func (g *Graph) validateFrom(i int) error {
	for j := i; j < len(g.U); j++ {
		if g.U[j] < 0 || int(g.U[j]) >= g.N || g.V[j] < 0 || int(g.V[j]) >= g.N {
			return fmt.Errorf("graph: arc %d = (%d,%d) out of range [0,%d)", j, g.U[j], g.V[j], g.N)
		}
	}
	return fmt.Errorf("graph: arcs %d,%d = (%d,%d),(%d,%d) are not mirrors",
		i, i+1, g.U[i], g.V[i], g.U[i+1], g.V[i+1])
}

// SortedDedupEdges returns the edge list with endpoints normalized
// (min,max), sorted, and duplicates removed. Useful in tests.
func (g *Graph) SortedDedupEdges() [][2]int {
	es := g.Span().Pairs()
	for i := range es {
		if es[i][0] > es[i][1] {
			es[i][0], es[i][1] = es[i][1], es[i][0]
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	out := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			out = append(out, e)
		}
	}
	return out
}
