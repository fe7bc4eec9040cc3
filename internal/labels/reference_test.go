package labels

import (
	"slices"
	"testing"

	"repro/graph"
	"repro/internal/pram"
)

// refN is the vertex count of the reference checks below.
const refN = 1 << 13

// randomForest returns a digraph whose parents point to smaller ids
// (so it is acyclic), with deep chains for SHORTCUT to compress.
func randomForest(n int, seed uint64) *Digraph {
	d := NewSelfLabeled(n)
	coin := pram.Coin{Seed: seed}
	for v := 1; v < n; v++ {
		if coin.Bernoulli(0, uint64(v), 0.9) {
			lo := v - 8
			if lo < 0 {
				lo = 0
			}
			d.Parent[v] = int32(lo + coin.Intn(1, uint64(v), v-lo))
		}
	}
	return d
}

// TestRangeStepsMatchReferences checks the range-bodied steps against
// per-element references computed on the host.
func TestRangeStepsMatchReferences(t *testing.T) {
	m := pram.New()
	g := graph.Gnm(refN, 2*refN, 5)

	t.Run("Shortcut", func(t *testing.T) {
		d := randomForest(refN, 3)
		for pass := 0; ; pass++ {
			old := slices.Clone(d.Parent)
			want := make([]int32, len(old))
			changed := 0
			for v := range old {
				want[v] = old[old[v]]
				if want[v] != old[v] {
					changed = 1
				}
			}
			if got := d.Shortcut(m); got != changed {
				t.Fatalf("pass %d: Shortcut returned %d, want %d", pass, got, changed)
			}
			if !slices.Equal(d.Parent, want) {
				t.Fatalf("pass %d: Shortcut parents differ from v.p.p of the old digraph", pass)
			}
			if changed == 0 {
				break
			}
		}
		if !d.IsFlat() {
			t.Fatal("not flat once Shortcut reports no change")
		}
	})

	t.Run("Alter", func(t *testing.T) {
		d := randomForest(refN, 4)
		a := NewArcStore(g.Span())
		a.Alter(m, d)
		k := 0 // the live arcs are the non-loop images, in input order
		for i := range g.U {
			u, v := d.Parent[g.U[i]], d.Parent[g.V[i]]
			if u == v {
				continue
			}
			if k >= a.Len() || a.Orig[k] != int32(i) || a.U[k] != u || a.V[k] != v {
				t.Fatalf("live arc %d does not descend from arc %d as (%d,%d)", k, i, u, v)
			}
			k++
		}
		if k != a.Len() {
			t.Fatalf("%d live arcs, want %d", a.Len(), k)
		}
	})

	t.Run("HasNonLoop", func(t *testing.T) {
		a := &ArcStore{}
		for i := 0; i < refN; i++ {
			a.Append(int32(i), int32(i), -1)
		}
		if a.HasNonLoop(m) {
			t.Fatal("all-loop store reported a non-loop")
		}
		for _, at := range []int{0, refN / 2, refN - 1} {
			a.V[at] = int32((at + 1) % refN)
			if !a.HasNonLoop(m) {
				t.Fatalf("non-loop at arc %d missed", at)
			}
			a.V[at] = int32(at)
		}
	})

	t.Run("MarkIncident", func(t *testing.T) {
		d := randomForest(refN, 6)
		a := NewArcStore(g.Span())
		a.Alter(m, d)
		added := &ArcStore{}
		for v := 0; v+3 < refN; v += 7 {
			added.Append(int32(v), int32(v+3), -1)
		}
		want := make([]int32, refN)
		for _, st := range []*ArcStore{a, added} {
			for i := range st.U {
				if st.U[i] != st.V[i] {
					want[st.U[i]], want[st.V[i]] = 1, 1
				}
			}
		}
		inc := make([]int32, refN)
		pram.Fill32(inc, 1) // MarkIncident must clear stale marks
		a.MarkIncident(m, inc)
		added.MarkEnds(m, inc)
		if !slices.Equal(inc, want) {
			t.Fatal("incident marks differ from the sequential reference")
		}
	})
}
