package spanning

import (
	"repro/internal/expand"
	"repro/internal/hashing"
	"repro/internal/labels"
	"repro/internal/pram"
)

// treeLinkInput gathers everything TREE-LINK (§C.3) consumes: the
// post-EXPAND snapshots H_j(u), the leader vote, and the current arcs.
// Factoring it out of the phase loop lets tests validate Lemmas
// C.4–C.6 directly against BFS ground truth.
type treeLinkInput struct {
	M         *pram.Machine
	Arcs      *labels.ArcStore
	Exp       *expand.Outcome
	Ongoing   []int32
	Leader    []int32
	TableSize int
	HashQ     hashing.Pairwise
	NOngoing  int
}

// treeLinkOutput carries the per-vertex results: u.α (−1 when unset),
// u.β (−1 when unset), and the chosen witness arc index (−1 if none).
type treeLinkOutput struct {
	Alpha  []int32
	Beta   []int32
	Chosen []int32
}

// treeLink executes TREE-LINK steps (1)–(5): it computes α (the
// largest radius with neither collisions, leaders, nor fully dormant
// vertices in B(u,α) — Lemma C.4), β (the distance to the nearest
// leader where defined — Lemma C.5), and for every vertex with β = x a
// witness arc to a neighbour with β = x−1 (Lemma C.6). Step (6), the
// actual link and forest mark, stays with the caller because it
// mutates the digraph.
func treeLink(in treeLinkInput, alpha, beta, leaderNbr, chosen []int32) treeLinkOutput {
	m := in.M
	n := len(in.Ongoing)
	exp := in.Exp
	T := exp.Rounds

	// liveInRound(v, j): not yet dormant after round j (§B.3.1's round
	// numbering: round 0 = after Step (4)).
	liveInRound := func(v int32, j int) bool {
		dr := exp.DormRound[v]
		return dr < 0 || int(dr) > j
	}

	// Step (1): initialize α and Q(u).
	Q := make([]*hashing.Table, n)
	m.Step(n, func(u int) {
		alpha[u] = -1
		if in.Ongoing[u] == 0 || in.Leader[u] == 1 || exp.H[u] == nil {
			return
		}
		alpha[u] = 0
		Q[u] = hashing.NewTable(in.HashQ, in.TableSize)
		Q[u].TryInsert(int32(u))
		m.Alloc(in.TableSize)
	})

	// Step (2): for j = T → 0, try to extend the radius by 2^j
	// (Lemma C.4's halving construction of the maximal good radius).
	chargedProcs := in.NOngoing * in.TableSize * in.TableSize
	for j := T; j >= 0; j-- {
		snap := exp.Snapshots[j]
		extend := func(u int) {
			if in.Ongoing[u] == 0 || alpha[u] < 0 || Q[u] == nil {
				return
			}
			// Every v ∈ Q(u) must be live in round j.
			entries := Q[u].Occupied()
			for _, v := range entries {
				if !liveInRound(v, j) {
					return
				}
			}
			// Build Q′ = ∪_{v∈Q(u)} H_j(v).
			qp := hashing.NewTable(in.HashQ, in.TableSize)
			var vals []int32
			for _, v := range entries {
				hv := snap[v]
				if hv == nil {
					return // fully dormant v: cannot expand
				}
				for _, w := range hv.Occupied() {
					qp.TryInsert(w)
					vals = append(vals, w)
				}
			}
			// Reject on collision or leader in Q′ (property P of the
			// Lemma C.4 proof).
			for _, w := range vals {
				if qp.Collides(w) || in.Leader[w] == 1 {
					return
				}
			}
			Q[u] = qp
			alpha[u] += 1 << uint(j)
		}
		m.StepN(chargedProcs, n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				extend(u)
			}
		})
	}

	// Step (3): mark leader-neighbours along current arcs. Loops mark
	// nothing, so the host sweeps the live arcs only.
	pram.Fill32(leaderNbr, 0)
	au, av := in.Arcs.U, in.Arcs.V
	m.StepN(in.Arcs.Procs(), in.Arcs.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, w := au[i], av[i]
			if in.Ongoing[v] == 1 && in.Leader[v] == 1 {
				leaderNbr[w] = 1
			}
		}
	})

	// Step (4): derive β = α+1 when Q(u) holds a leader-neighbour.
	m.Step(n, func(u int) {
		beta[u] = -1
		if in.Ongoing[u] == 0 {
			return
		}
		if in.Leader[u] == 1 {
			beta[u] = 0
			return
		}
		if Q[u] == nil {
			return
		}
		for _, w := range Q[u].Occupied() {
			if leaderNbr[w] == 1 {
				beta[u] = alpha[u] + 1
				return
			}
		}
	})

	// Step (5): choose a witness arc (v,w) with β(w) = β(v) − 1. A loop
	// is never a witness; the chosen index is into the live view, which
	// stays fixed until ALTER.
	pram.Fill32(chosen, -1)
	m.StepN(in.Arcs.Procs(), in.Arcs.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, w := au[i], av[i]
			if in.Ongoing[v] == 0 || in.Ongoing[w] == 0 {
				continue
			}
			bv, bw := beta[v], beta[w]
			if bv >= 1 && bw == bv-1 {
				chosen[v] = int32(i)
			}
		}
	})

	return treeLinkOutput{Alpha: alpha, Beta: beta, Chosen: chosen}
}
