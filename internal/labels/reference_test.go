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

	t.Run("FlattenVerts", func(t *testing.T) {
		// Every third vertex is an isolated root, off the frontier.
		d := randomForest(refN, 7)
		var verts []int32
		for v := range d.Parent {
			if v%3 == 2 {
				d.Parent[v] = int32(v)
				continue
			}
			for d.Parent[v]%3 == 2 {
				d.Parent[v] = d.Parent[d.Parent[v]] - 1
			}
			verts = append(verts, int32(v))
		}
		ref := &Digraph{Parent: slices.Clone(d.Parent)}
		mRef, mFront := pram.New(), pram.New()
		want := ref.Flatten(mRef)
		if got := d.FlattenVerts(mFront, verts); got != want ||
			!slices.Equal(d.Parent, ref.Parent) || mFront.Stats() != mRef.Stats() {
			t.Fatalf("FlattenVerts: %d passes, stats %+v; Flatten: %d passes, stats %+v",
				got, mFront.Stats(), want, mRef.Stats())
		}
	})

	t.Run("Alter", func(t *testing.T) {
		d := randomForest(refN, 4)
		a := NewArcStoreOrig(g.Span())
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
		// A store without Orig alters its endpoints the same way.
		b := NewArcStore(g.Span())
		b.Alter(m, d)
		if b.Orig != nil || !slices.Equal(b.U, a.U) || !slices.Equal(b.V, a.V) {
			t.Fatal("a store without Orig alters differently")
		}
	})

	t.Run("HasNonLoop", func(t *testing.T) {
		a := &ArcStore{}
		for i := 0; i < refN; i++ {
			a.Append(int32(i), int32(i))
		}
		before := m.Stats().Work
		if a.HasNonLoop(m) {
			t.Fatal("all-loop store reported a non-loop")
		}
		a.Append(0, 1)
		a.Append(1, 0)
		if !a.HasNonLoop(m) {
			t.Fatal("non-loop pair missed")
		}
		if got := m.Stats().Work - before; got != 2*refN+2 {
			t.Fatalf("two HasNonLoop steps charged %d work, want %d", got, 2*refN+2)
		}
	})

	t.Run("MarkIncident", func(t *testing.T) {
		d := randomForest(refN, 6)
		a := NewArcStore(g.Span())
		a.Alter(m, d)
		added := &ArcStore{}
		for v := 0; v+3 < refN; v += 7 {
			added.Append(int32(v), int32(v+3))
		}
		// The reference marks the ends of every non-loop image of an
		// input arc and every appended arc.
		want := make([]bool, refN)
		for i := range g.U {
			if x, y := d.Parent[g.U[i]], d.Parent[g.V[i]]; x != y {
				want[x], want[y] = true, true
			}
		}
		for v := 0; v+3 < refN; v += 7 {
			want[v], want[v+3] = true, true
		}
		inc := make([]bool, refN)
		for i := range inc {
			inc[i] = true // MarkIncident must clear stale marks
		}
		a.MarkIncident(m, inc)
		added.MarkEnds(m, inc)
		if !slices.Equal(inc, want) {
			t.Fatal("incident marks differ from the sequential reference")
		}
	})
}
