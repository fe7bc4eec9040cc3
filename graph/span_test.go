package graph

import (
	"bytes"
	"reflect"
	"testing"
)

func spanTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {2, 3}, {1, 2}, {4, 4}, {5, 0}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestSpanAliasesGraphColumns(t *testing.T) {
	g := spanTestGraph(t)
	s := g.Span()
	if s.Len() != g.NumEdges() {
		t.Fatalf("Span().Len() = %d, want %d", s.Len(), g.NumEdges())
	}
	if len(s.U) == 0 || &s.U[0] != &g.U[0] || &s.V[0] != &g.V[0] {
		t.Fatal("Span() does not alias the graph's arc columns")
	}
	if err := s.Validate(g.N); err != nil {
		t.Fatalf("graph span failed Validate: %v", err)
	}
	for i := 0; i < s.Len(); i++ {
		u, v := s.Edge(i)
		if u != g.U[2*i] || v != g.V[2*i] {
			t.Fatalf("Edge(%d) = (%d,%d), want (%d,%d)", i, u, v, g.U[2*i], g.V[2*i])
		}
	}
}

func TestSpanPairsRoundTrip(t *testing.T) {
	g := spanTestGraph(t)
	pairs := g.Span().Pairs()
	want := [][2]int{{0, 1}, {2, 3}, {1, 2}, {4, 4}, {5, 0}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("Pairs() = %v, want %v", pairs, want)
	}
	back := FromPairs(pairs)
	if !reflect.DeepEqual(back, g.Span().Slice(0, g.NumEdges())) {
		// Compare columns elementwise: FromPairs must rebuild the
		// exact mirror-arc layout the graph stores.
		t.Fatalf("FromPairs(Pairs()) = %+v, want columns %v / %v", back, g.U, g.V)
	}
	if err := back.Validate(g.N); err != nil {
		t.Fatalf("FromPairs span failed Validate: %v", err)
	}
}

func TestSpanSlice(t *testing.T) {
	g := spanTestGraph(t)
	s := g.Span()
	sub := s.Slice(1, 3)
	if sub.Len() != 2 {
		t.Fatalf("Slice(1,3).Len() = %d, want 2", sub.Len())
	}
	for i := 0; i < sub.Len(); i++ {
		u, v := sub.Edge(i)
		wu, wv := s.Edge(i + 1)
		if u != wu || v != wv {
			t.Fatalf("Slice edge %d = (%d,%d), want (%d,%d)", i, u, v, wu, wv)
		}
	}
	if &sub.U[0] != &s.U[2] {
		t.Fatal("Slice does not share the backing columns")
	}
	if empty := s.Slice(2, 2); empty.Len() != 0 {
		t.Fatalf("empty slice has Len %d", empty.Len())
	}
}

func TestSpanValidateRejects(t *testing.T) {
	cases := map[string]EdgeSpan{
		"length mismatch": {U: []int32{0, 1}, V: []int32{1}},
		"odd arcs":        {U: []int32{0}, V: []int32{1}},
		"out of range":    {U: []int32{0, 9}, V: []int32{9, 0}},
		"negative":        {U: []int32{0, -1}, V: []int32{-1, 0}},
		"not mirrors":     {U: []int32{0, 2}, V: []int32{1, 0}},
	}
	for name, s := range cases {
		if err := s.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	if err := (EdgeSpan{}).Validate(0); err != nil {
		t.Errorf("zero span rejected: %v", err)
	}
	// Degenerate vertex counts must reject every edge, like
	// Graph.Validate's signed checks would.
	one := EdgeSpan{U: []int32{0, 1}, V: []int32{1, 0}}
	if err := one.Validate(-1); err == nil {
		t.Error("Validate(-1) accepted an edge")
	}
	if err := one.Validate(0); err == nil {
		t.Error("Validate(0) accepted an edge")
	}
}

// TestSpanBatches pins the splitting rule: k is clamped to [1, m],
// batch sizes differ by at most one, no batch is empty, and the
// concatenated batches are the edge list in order.
func TestSpanBatches(t *testing.T) {
	g := Gnm(50, 137, 3)
	want := g.Span().Pairs()
	for _, k := range []int{-3, -1, 0, 1, 2, 3, 5, 7, 57, 136, 137, 138, 1000} {
		batches := g.SpanBatches(k)
		wantK := min(max(k, 1), g.NumEdges())
		if len(batches) != wantK {
			t.Fatalf("k=%d: got %d batches, want %d", k, len(batches), wantK)
		}
		var flat [][2]int
		lo, hi := batches[0].Len(), batches[0].Len()
		for i, b := range batches {
			if b.Len() == 0 {
				t.Fatalf("k=%d: batch %d empty", k, i)
			}
			lo, hi = min(lo, b.Len()), max(hi, b.Len())
			flat = append(flat, b.Pairs()...)
		}
		if hi-lo > 1 {
			t.Fatalf("k=%d: batch sizes range %d..%d", k, lo, hi)
		}
		if !reflect.DeepEqual(flat, want) {
			t.Fatalf("k=%d: concatenated batches are not the edge list in order", k)
		}
	}
	if got := New(5).SpanBatches(3); len(got) != 0 {
		t.Fatalf("edgeless graph produced %d batches", len(got))
	}
}

// TestSpanBatchesZeroCopy: batches must alias the graph's columns,
// and concatenating them must cover every edge exactly once in order.
func TestSpanBatchesZeroCopy(t *testing.T) {
	g := Gnm(40, 97, 5)
	spans := g.SpanBatches(4)
	off := 0
	for _, s := range spans {
		if &s.U[0] != &g.U[2*off] {
			t.Fatalf("batch at edge %d does not alias g.U", off)
		}
		off += s.Len()
	}
	if off != g.NumEdges() {
		t.Fatalf("batches cover %d edges, want %d", off, g.NumEdges())
	}
}

// TestLoaderSpans: the span hooks of both loaders produce exactly the
// graph's own columns.
func TestLoaderSpans(t *testing.T) {
	g := Gnm(200, 600, 11)

	var txt, bin bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}

	n, span, err := ParseEdgeListSpan(txt.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.N || !reflect.DeepEqual(span.U, g.U) || !reflect.DeepEqual(span.V, g.V) {
		t.Fatal("ParseEdgeListSpan does not reproduce the graph's columns")
	}

	n, span, err = ReadBinarySpan(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != g.N || !reflect.DeepEqual(span.U, g.U) || !reflect.DeepEqual(span.V, g.V) {
		t.Fatal("ReadBinarySpan does not reproduce the graph's columns")
	}
}
