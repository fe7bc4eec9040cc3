package labels

import (
	"repro/graph"
	"repro/internal/pram"
)

// ArcStore holds the current (altered) graph arcs together with the
// identity of the original input arc each one descends from. ALTER
// (§2.2) replaces arc (v,w) by (v.p, w.p); the original arc index is
// what the spanning-forest algorithms mark (eˆ.f = 1 in §C).
//
// The columns are the host view: the live arcs only. A loop stays a
// loop under every later ALTER and every arc step skips loops, so
// after each Alter the store drops its loops from the view. The drop
// is stable: order is kept, each arc keeps its Orig, and since (v,w)
// and (w,v) become loops together, mirror pairs stay adjacent. The
// PRAM still runs one processor per arc the store has ever held, so
// every arc step charges Procs() and the host sweeps Len().
type ArcStore struct {
	U, V []int32 // live arcs' current endpoints, altered over rounds
	Orig []int32 // index into the input graph's arc list, or -1 for added arcs

	procs int // arcs ever held: the processors each arc step charges
}

// NewArcStore copies the arc columns of span; Orig[i] = i. Taking the
// columnar view (rather than a *graph.Graph) keeps the simulator
// layers on the same uniform data path as the native and incremental
// engines: any SoA arc source — a Graph's Span(), a loader span, a
// replay batch — seeds the store without boxing into pairs first.
func NewArcStore(span graph.EdgeSpan) *ArcStore {
	a := &ArcStore{
		U:     make([]int32, len(span.U)),
		V:     make([]int32, len(span.V)),
		Orig:  make([]int32, len(span.U)),
		procs: len(span.U),
	}
	copy(a.U, span.U)
	copy(a.V, span.V)
	for i := range a.Orig {
		a.Orig[i] = int32(i)
	}
	return a
}

// Len returns the number of live arcs: the host frontier of an arc
// step.
func (a *ArcStore) Len() int { return len(a.U) }

// Procs returns the number of processors an arc step charges: one per
// arc the store has held, loops dropped from the view included.
func (a *ArcStore) Procs() int { return a.procs }

// Append adds an arc (u,v) descended from original arc orig (-1 for
// edges added by EXPAND). Not safe for concurrent use; callers append
// from the host between PRAM steps.
func (a *ArcStore) Append(u, v, orig int32) {
	a.U = append(a.U, u)
	a.V = append(a.V, v)
	a.Orig = append(a.Orig, orig)
	a.procs++
}

// Alter replaces every arc (v,w) by (v.p, w.p) in one PRAM step, one
// processor per arc ("each edge corresponds to a distinct processor").
// The host alters the live arcs only: a dropped loop's processor would
// rewrite a loop into a loop no step reads. The arcs that became loops
// are then dropped from the view.
func (a *ArcStore) Alter(m *pram.Machine, d *Digraph) {
	u, v, par := a.U, a.V, d.Parent
	m.StepN(a.procs, len(u), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u[i] = par[u[i]]
			v[i] = par[v[i]]
		}
	})
	a.dropLoops()
}

// dropLoops removes the loop arcs from the host view in place, keeping
// the order of the rest. Host-side bookkeeping between steps. Whether
// an arc is a loop is unpredictable, so the loop copies every arc and
// advances the write index by a computed 0 or 1 rather than branching.
func (a *ArcStore) dropLoops() {
	u, v, orig := a.U, a.V, a.Orig
	k := 0
	for i := range u {
		x, y := u[i], v[i]
		u[k], v[k], orig[k] = x, y, orig[i]
		d := uint32(x ^ y)
		k += int((d | -d) >> 31) // 1 iff x != y
	}
	a.U, a.V, a.Orig = u[:k], v[:k], orig[:k]
}

// HasNonLoop reports (in one PRAM step) whether any arc is a non-loop;
// the break condition of the Vanilla and Theorem-1 loops ("until no
// edge exists other than loops"). Every arc's processor is charged;
// the host scans the live arcs, since a loop never raises the flag, and
// stops scanning a range once it has raised the flag, since the rest of
// that range could only raise it again.
func (a *ArcStore) HasNonLoop(m *pram.Machine) bool {
	var flag int64
	u, v := a.U, a.V
	m.StepN(a.procs, len(u), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if u[i] != v[i] {
				pram.Store64(&flag, 1)
				return
			}
		}
	})
	return pram.Load64(&flag) == 1
}

// MarkIncident sets inc[x]=1 for every endpoint of a non-loop arc and
// inc[x]=0 for every other vertex, in one PRAM step. Lemma B.2 uses
// this to identify ongoing vertices.
func (a *ArcStore) MarkIncident(m *pram.Machine, inc []int32) {
	pram.Fill32(inc, 0)
	a.MarkEnds(m, inc)
}

// MarkEnds is MarkIncident without the clearing: it only raises
// inc[x] to 1 for the endpoints of this store's non-loop arcs, so
// several stores can mark one array. Loops mark nothing, so the host
// sweeps the live arcs only.
func (a *ArcStore) MarkEnds(m *pram.Machine, inc []int32) {
	u, v := a.U, a.V
	m.StepN(a.procs, len(u), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if u[i] != v[i] {
				pram.Store32(&inc[u[i]], 1)
				pram.Store32(&inc[v[i]], 1)
			}
		}
	})
}
