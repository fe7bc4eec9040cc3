package core

import (
	"repro/internal/labels"
	"repro/internal/pram"
)

// maxlink performs the MAXLINK subroutine of §3.1: repeat twice { for
// each vertex v: u := argmax_{w ∈ N(v).p} ℓ(w); if ℓ(u) > ℓ(v) then
// v.p := u }. N(v) contains v itself, the endpoints of incident
// original (altered) arcs, and the endpoints of incident added arcs.
//
// Each iteration is two PRAM sub-steps: a read phase that combines
// (level, vertex) maxima per vertex — O(1) time on an ARBITRARY CRCW
// PRAM via the per-level array trick of §3.3, realized here as a
// packed max (pram.MaxCombine64) — and a write phase that re-parents.
// Links always target a strictly higher level, so Lemma 3.2's
// invariant ℓ(v) < ℓ(v.p) for non-roots is maintained and no cycle can
// form.
//
// Every vertex step charges all n processors, but the host runs only
// the active (level ≥ 1) vertices: a level-0 vertex ends no live arc,
// so its best neighbour parent is its own parent and it never moves.
// The folds sweep the live arcs; a loop contributes nothing. best is
// indexed by slot, like the rest of the frontier-sized state.
func (s *state) maxlink() {
	m, n := s.m, s.n
	iters := s.p.MaxLinkIters
	if iters <= 0 {
		iters = 2
	}
	active, slot := s.active, s.slot
	for it := 0; it < iters; it++ {
		best := s.best
		par := s.d.Parent
		lvl := s.level

		// Read phase: seed with v's own parent (v ∈ N(v)), then fold
		// in w.p for every neighbour w along both arc stores.
		m.StepN(n, len(active), func(lo, hi int) {
			for i, v := range active[lo:hi] {
				p := par[v]
				best[lo+i] = pram.PackLevelVertex(lvl[p], p)
			}
		})
		fold := func(st *labels.ArcStore) {
			u, w := st.U, st.V
			m.StepN(st.Procs(), st.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a, b := u[i], w[i]
					if a == b {
						continue
					}
					bp := par[b]
					pram.MaxCombine64(&best[slot[a]], pram.PackLevelVertex(lvl[bp], bp))
				}
			})
		}
		fold(s.arcs)
		fold(s.added)

		// Write phase: adopt the argmax parent if strictly higher.
		m.StepN(n, len(active), func(lo, hi int) {
			for i, v := range active[lo:hi] {
				l, u := pram.UnpackLevelVertex(best[lo+i])
				if l > lvl[v] && u != par[v] {
					par[v] = u
					s.parChange = 1
				}
			}
		})
	}
}
