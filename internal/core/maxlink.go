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
// packed atomic max — and a write phase that re-parents. Links always
// target a strictly higher level, so Lemma 3.2's invariant
// ℓ(v) < ℓ(v.p) for non-roots is maintained and no cycle can form.
func (s *state) maxlink() {
	m, n := s.m, s.n
	iters := s.p.MaxLinkIters
	if iters <= 0 {
		iters = 2
	}
	for it := 0; it < iters; it++ {
		best := s.best
		par := s.d.Parent
		lvl := s.level

		// Read phase: seed with v's own parent (v ∈ N(v)), then fold
		// in w.p for every neighbour w along both arc stores.
		m.StepRange(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				p := par[v]
				best[v] = pram.PackLevelVertex(lvl[p], p)
			}
		})
		fold := func(st *labels.ArcStore) {
			u, w := st.U, st.V
			m.StepRange(st.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a, b := u[i], w[i]
					if a == b {
						continue
					}
					bp := par[b]
					pram.MaxCombine64(&best[a], pram.PackLevelVertex(lvl[bp], bp))
				}
			})
		}
		fold(s.arcs)
		fold(s.added)

		// Write phase: adopt the argmax parent if strictly higher.
		m.StepRange(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				l, u := pram.UnpackLevelVertex(best[v])
				if l > lvl[v] && u != par[v] {
					par[v] = u
					pram.Store64(&s.parChange, 1)
				}
			}
		})
	}
}
