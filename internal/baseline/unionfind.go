// Package baseline implements the comparison algorithms the paper
// positions itself against (§1, §1.2.1, §A): the sequential union-find
// ground truth, Shiloach–Vishkin and Awerbuch–Shiloach O(log n) PRAM
// algorithms, Liu–Tarjan style simple labeling, synchronous label
// propagation (Θ(d) rounds), and repeated adjacency-matrix squaring
// (O(log d) rounds, Θ(n³) work per round — footnote 3 of the paper).
package baseline

import "repro/graph"

// UnionFind is a classic disjoint-set forest with union by rank and
// path halving. It is the sequential ground truth: O(m α(n)) time.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns a structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x with path halving.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y; returns true if they were distinct.
func (uf *UnionFind) Union(x, y int32) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// Components computes the component labeling of g with union-find.
// Labels are canonical representatives (not necessarily minima).
func Components(g *graph.Graph) []int32 {
	uf := NewUnionFind(g.N)
	for i := 0; i < len(g.U); i += 2 {
		uf.Union(g.U[i], g.V[i])
	}
	out := make([]int32, g.N)
	for v := range out {
		out[v] = uf.Find(int32(v))
	}
	return out
}

// SpanningForestSeq returns the edge indices (arc-pair index i is arcs
// 2i and 2i+1 of g.U/g.V) of a spanning forest computed sequentially —
// the oracle for the forest size n − #components.
func SpanningForestSeq(g *graph.Graph) []int {
	uf := NewUnionFind(g.N)
	var out []int
	for i := 0; i < len(g.U); i += 2 {
		if uf.Union(g.U[i], g.V[i]) {
			out = append(out, i/2)
		}
	}
	return out
}
