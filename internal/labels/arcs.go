package labels

import (
	"slices"

	"repro/graph"
	"repro/internal/pram"
)

// ArcStore holds the current (altered) graph arcs. ALTER (§2.2)
// replaces arc (v,w) by (v.p, w.p).
//
// The columns are the host view: the live arcs only, never a loop. A
// loop stays a loop under every later ALTER and every arc step skips
// loops, so the store drops input loops when it is built, an appended
// loop at once, and the arcs each ALTER turns into loops inside the
// ALTER's own pass. The drop is stable: order is kept and, since (v,w)
// and (w,v) become loops together, mirror pairs stay adjacent. The
// PRAM still runs one processor per arc the store has ever held, so
// every arc step charges Procs() and the host sweeps Len().
//
// Orig, the input arc each live arc descends from, is what the
// spanning-forest algorithms mark (eˆ.f = 1 in §C). Only a store built
// by NewArcStoreOrig keeps it; on every other store it is nil, and the
// connected-components algorithms carry just the two endpoint columns.
type ArcStore struct {
	U, V []int32 // live arcs' current endpoints, altered over rounds
	Orig []int32 // index into the input graph's arc list; nil if not tracked

	procs int // arcs ever held: the processors each arc step charges
}

// NewArcStore copies the non-loop arcs of span, in order. Taking the
// columnar view (rather than a *graph.Graph) keeps the simulator
// layers on the same uniform data path as the native and incremental
// engines: any SoA arc source — a Graph's Span(), a loader span, a
// replay batch — seeds the store without boxing into pairs first.
func NewArcStore(span graph.EdgeSpan) *ArcStore { return newArcStore(span, false) }

// NewArcStoreOrig is NewArcStore for the spanning-forest algorithms:
// the store also tracks Orig, starting from each live arc's index in
// span.
func NewArcStoreOrig(span graph.EdgeSpan) *ArcStore { return newArcStore(span, true) }

func newArcStore(span graph.EdgeSpan, orig bool) *ArcStore {
	// The arcs before the first loop are copied as a block; an input
	// rarely has a loop, and only the arcs from it on are filtered.
	u, v := span.U, span.V[:len(span.U)]
	first := 0
	for first < len(u) && u[first] != v[first] {
		first++
	}
	a := &ArcStore{U: slices.Clone(u), V: slices.Clone(v), procs: len(u)}
	if orig {
		a.Orig = make([]int32, len(u))
		for i := range a.Orig {
			a.Orig[i] = int32(i)
		}
	}
	k := first
	for i := first; i < len(u); i++ {
		x, y := u[i], v[i]
		a.U[k], a.V[k] = x, y
		if orig {
			a.Orig[k] = int32(i)
		}
		k += nonLoop(x, y)
	}
	a.keep(k)
	return a
}

// nonLoop is 1 if x != y and 0 otherwise. Whether an arc is a loop is
// unpredictable, so the drops copy every arc and advance the write
// index by this value rather than branching.
func nonLoop(x, y int32) int {
	d := uint32(x ^ y)
	return int((d | -d) >> 31)
}

// keep truncates the view to its first k arcs.
func (a *ArcStore) keep(k int) {
	a.U, a.V = a.U[:k], a.V[:k]
	if a.Orig != nil {
		a.Orig = a.Orig[:k]
	}
}

// Len returns the number of live arcs: the host frontier of an arc
// step.
func (a *ArcStore) Len() int { return len(a.U) }

// Procs returns the number of processors an arc step charges: one per
// arc the store has held, loops dropped from the view included.
func (a *ArcStore) Procs() int { return a.procs }

// Append adds an arc (u,v), an edge added by EXPAND, to a store that
// does not track Orig: an added arc descends from no input arc. A loop
// gains a processor but never enters the view. Not safe for
// concurrent use; callers append from the host between PRAM steps.
func (a *ArcStore) Append(u, v int32) {
	a.procs++
	if u != v {
		a.U = append(a.U, u)
		a.V = append(a.V, v)
	}
}

// Alter replaces every arc (v,w) by (v.p, w.p) in one PRAM step, one
// processor per arc ("each edge corresponds to a distinct processor").
// The host alters the live arcs only: a dropped loop's processor would
// rewrite a loop into a loop no step reads. The same pass drops the
// arcs that became loops, writing each kept arc at the next free
// index; StepN hands the whole frontier to one call, so that index
// runs over the whole view.
func (a *ArcStore) Alter(m *pram.Machine, d *Digraph) {
	u, v, orig, par := a.U, a.V, a.Orig, d.Parent
	k := 0
	m.StepN(a.procs, len(u), func(lo, hi int) {
		k = lo
		v := v[:hi]
		for i := lo; i < hi; i++ {
			x, y := par[u[i]], par[v[i]]
			u[k], v[k] = x, y
			if orig != nil {
				orig[k] = orig[i]
			}
			k += nonLoop(x, y)
		}
	})
	a.keep(k)
}

// HasNonLoop reports (in one PRAM step) whether any arc is a non-loop;
// the break condition of the Vanilla and Theorem-1 loops ("until no
// edge exists other than loops"). Every arc's processor is charged;
// the view holds no loop, so the host's answer is whether it holds an
// arc at all.
func (a *ArcStore) HasNonLoop(m *pram.Machine) bool {
	m.StepN(a.procs, 0, nil)
	return len(a.U) > 0
}

// MarkIncident sets inc[x] for every endpoint of a non-loop arc and
// clears it for every other vertex, in one PRAM step. Lemma B.2 uses
// this to identify ongoing vertices.
func (a *ArcStore) MarkIncident(m *pram.Machine, inc []bool) {
	clear(inc)
	a.MarkEnds(m, inc)
}

// MarkEnds is MarkIncident without the clearing: it only sets inc[x]
// for the endpoints of this store's non-loop arcs, so
// several stores can mark one array. Loops mark nothing and the view
// holds none, so the host marks both ends of every live arc.
func (a *ArcStore) MarkEnds(m *pram.Machine, inc []bool) {
	u, v := a.U, a.V
	m.StepN(a.procs, len(u), func(lo, hi int) {
		v := v[:hi]
		for i := lo; i < hi; i++ {
			inc[u[i]] = true
			inc[v[i]] = true
		}
	})
}
