package graph

import "fmt"

// EdgeSpan is a zero-copy columnar (structure-of-arrays) view over a
// contiguous range of arc pairs: U and V are parallel int32 columns in
// the Graph arc convention — arc 2k is (u,v), arc 2k+1 its mirror
// (v,u) — so undirected edge i of the span is (U[2i], V[2i]). A span
// taken from a Graph (Span, SpanBatches) or a loader (ReadBinarySpan,
// ParseEdgeListSpan) aliases the graph's own arc columns: no edge is
// copied, boxed into [2]int, or widened to int, which is what lets the
// streaming replay path (Service.IngestSpan, ccfind -batches) move
// batches between layers at 8 bytes per edge with zero per-batch
// materialization.
//
// The zero EdgeSpan is an empty span. Sub-slicing (Slice) is cheap and
// shares the backing columns; Pairs and FromPairs convert to and from
// the legacy [][2]int representation at its usual materialization
// cost. Spans are views: mutating the underlying graph invalidates
// them the same way mutating a slice's backing array invalidates
// aliases.
type EdgeSpan struct {
	// U and V are the arc columns: arc j is (U[j], V[j]), and arcs
	// come in mirror pairs as in Graph. len(U) == len(V) == 2·Len().
	U, V []int32
}

// Span returns the zero-copy span of every edge of g, aliasing the
// graph's arc columns. The span is invalidated by AddEdge.
//
//pramcc:zeroalloc
func (g *Graph) Span() EdgeSpan {
	return EdgeSpan{U: g.U, V: g.V}
}

// Len returns the number of undirected edges (arc pairs) in the span.
//
//pramcc:zeroalloc
func (s EdgeSpan) Len() int { return len(s.U) / 2 }

// Edge returns the endpoints of undirected edge i.
func (s EdgeSpan) Edge(i int) (u, v int32) { return s.U[2*i], s.V[2*i] }

// Slice returns the sub-span of edges [lo, hi), sharing the backing
// columns. It panics on out-of-range bounds, like slicing.
func (s EdgeSpan) Slice(lo, hi int) EdgeSpan {
	return EdgeSpan{U: s.U[2*lo : 2*hi : 2*hi], V: s.V[2*lo : 2*hi : 2*hi]}
}

// Pairs materializes the span as the legacy [][2]int edge list — the
// adapter for callers still on the boxed representation. It allocates
// 2× the span's own footprint; hot paths should stay columnar.
func (s EdgeSpan) Pairs() [][2]int {
	out := make([][2]int, s.Len())
	for i := range out {
		out[i] = [2]int{int(s.U[2*i]), int(s.V[2*i])}
	}
	return out
}

// FromPairs builds a columnar span (with mirror arcs, like every
// span) from a [][2]int edge list — the adapter behind the kept
// [][2]int public methods. FromPairs narrows like any int→int32
// conversion, and a truncated endpoint can land back in valid range
// where no later check can tell it from a real vertex — so callers
// feeding untrusted pairs must range-check the ints BEFORE calling
// (as the pramcc ingest adapters do); Validate on the result can
// only vouch for the already-narrowed columns.
func FromPairs(edges [][2]int) EdgeSpan {
	u := make([]int32, 2*len(edges))
	v := make([]int32, 2*len(edges))
	for i, e := range edges {
		a, b := int32(e[0]), int32(e[1])
		u[2*i], u[2*i+1] = a, b
		v[2*i], v[2*i+1] = b, a
	}
	return EdgeSpan{U: u, V: v}
}

// Validate checks the span's structural invariants against a vertex
// count: equal-length even columns, every endpoint in [0, n), and
// arcs forming mirror pairs — the same contract Graph.Validate
// enforces on a graph's own columns.
func (s EdgeSpan) Validate(n int) error {
	if len(s.U) != len(s.V) {
		return fmt.Errorf("graph: span columns have different lengths %d, %d", len(s.U), len(s.V))
	}
	if len(s.U)%2 != 0 {
		return fmt.Errorf("graph: span has odd arc count %d, arcs must come in mirror pairs", len(s.U))
	}
	for i := 0; i < len(s.U); i += 2 {
		u, v := s.U[i], s.V[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return fmt.Errorf("graph: span edge %d = {%d,%d} out of range [0,%d)", i/2, u, v, n)
		}
		if s.U[i+1] != v || s.V[i+1] != u {
			return fmt.Errorf("graph: span arcs %d,%d = (%d,%d),(%d,%d) are not mirrors",
				i, i+1, u, v, s.U[i+1], s.V[i+1])
		}
	}
	return nil
}

// batchCuts splits m items into k near-equal contiguous batches
// (sizes differ by at most one, earlier batches get the extra items)
// and returns the k+1 cut points. k < 1 is treated as 1; k is capped
// at m so no batch is empty (zero batches for an empty range). This
// is SpanBatches' splitting rule.
func batchCuts(m, k int) []int {
	if k < 1 {
		k = 1
	}
	if k > m {
		k = m
	}
	cuts := make([]int, k+1)
	for i, start := 0, 0; i < k; i++ {
		size := m / k
		if i < m%k {
			size++
		}
		start += size
		cuts[i+1] = start
	}
	return cuts
}

// SpanBatches splits the graph's edges into k contiguous spans of
// near-equal size (sizes differ by at most one, earlier batches get
// the extra edges), preserving insertion order. The spans alias the
// graph's arc columns directly — no edge is copied — so replaying a
// graph through the streaming backend in batches costs nothing beyond
// the slice headers. k < 1 is treated as 1; a graph with fewer than k
// edges yields fewer (possibly zero) batches, none of them empty.
func (g *Graph) SpanBatches(k int) []EdgeSpan {
	s := g.Span()
	cuts := batchCuts(s.Len(), k)
	out := make([]EdgeSpan, len(cuts)-1)
	for i := range out {
		out[i] = s.Slice(cuts[i], cuts[i+1])
	}
	return out
}
