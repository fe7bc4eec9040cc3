// Package expand implements the EXPAND procedure of §B.3: every
// ongoing vertex tries to collect, by repeated distance doubling
// through size-limited hash tables, all vertices within distance 2^i of
// itself. Vertices that lose the block lottery are fully dormant;
// vertices whose tables collide (or that see a dormant vertex in their
// table) become half dormant and keep their table as is. Lemma B.7:
// while live, H_j(u) = B(u, 2^j); the loop runs O(log d) rounds.
//
// The same machinery, with per-round table snapshots kept, drives the
// spanning-forest TREE-LINK (§C.3), so snapshots are optional here.
package expand

import (
	"repro/internal/hashing"
	"repro/internal/labels"
	"repro/internal/pram"
)

// Params control one EXPAND invocation. The paper sets BlockCount =
// m/δ^{2/3} blocks of δ^{2/3} processors and tables of size δ^{1/3}
// with δ = m/n′; we expose the two knobs that matter for behaviour.
type Params struct {
	BlockSlack float64 // blocks = ceil(BlockSlack · #ongoing); paper ≈ m/δ^{2/3} ≥ n′·δ^{1/3}… (≥1 required)
	TableSize  int     // cells per table (δ^{1/3} in the paper)
	MaxRounds  int     // cap on step-(5) iterations (≥ log2(d)+2 needed)
	Snapshot   bool    // keep H_j per round for TREE-LINK
	Round      uint64  // phase number, salts the hash functions
	Seed       uint64
}

// Outcome is the result of EXPAND.
type Outcome struct {
	H         []*hashing.Table   // H(u), nil if u not ongoing or no block
	Snapshots [][]*hashing.Table // Snapshots[j][u] = H_j(u) if Params.Snapshot
	Live      []bool             // live after EXPAND (table holds whole component)
	FullyDorm []bool             // dormant before round 0 (no block)
	Dormant   []bool             // any dormant (fully or half)
	DormRound []int32            // first round u became dormant (-1 if live, 0 = steps 2–4)
	Rounds    int                // iterations of step (5) executed
	NewEntry  bool               // safety: true if loop was stopped by MaxRounds
}

// Run executes EXPAND over the ongoing vertices. ongoing[v] marks
// participants; arcs supplies the current (altered) graph arcs.
func Run(m *pram.Machine, arcs *labels.ArcStore, ongoing []bool, p Params) *Outcome {
	n := len(ongoing)
	nOngoing := 0
	for _, o := range ongoing {
		if o {
			nOngoing++
		}
	}
	out := &Outcome{
		H:         make([]*hashing.Table, n),
		Live:      make([]bool, n),
		FullyDorm: make([]bool, n),
		Dormant:   make([]bool, n),
		DormRound: make([]int32, n),
	}
	for i := range out.DormRound {
		out.DormRound[i] = -1
	}
	if nOngoing == 0 {
		return out
	}

	fam := hashing.Family{Seed: p.Seed ^ (p.Round * 0x9e3779b97f4a7c15)}
	hB := fam.At(0) // block mapping
	hV := fam.At(1) // table hashing

	blocks := int(p.BlockSlack * float64(nOngoing))
	if blocks < 1 {
		blocks = 1
	}
	tableSize := p.TableSize
	if tableSize < 2 {
		tableSize = 2
	}

	// Step (1): mark every ongoing vertex live.
	m.Step(n, func(v int) {
		out.Live[v] = ongoing[v]
	})

	// Step (2): map vertices to blocks with hB; a vertex owns a block
	// only if it is the sole ongoing vertex mapped there. O(1)-time
	// uniqueness test on ARBITRARY CRCW: write id; losers flag the cell.
	claim := make([]int32, blocks)
	conflict := make([]int32, blocks)
	pram.Fill32(claim, -1)
	m.Step(n, func(v int) {
		if ongoing[v] {
			pram.Store32(&claim[hB.Slot(uint64(v), blocks)], int32(v))
		}
	})
	m.Step(n, func(v int) {
		if ongoing[v] && pram.Load32(&claim[hB.Slot(uint64(v), blocks)]) != int32(v) {
			pram.Store32(&conflict[hB.Slot(uint64(v), blocks)], 1)
		}
	})
	m.Step(n, func(v int) {
		if !ongoing[v] {
			return
		}
		s := hB.Slot(uint64(v), blocks)
		if pram.Load32(&claim[s]) == int32(v) && pram.Load32(&conflict[s]) == 0 {
			out.H[v] = hashing.NewTable(hV, tableSize)
			m.Alloc(tableSize)
		} else {
			out.Live[v] = false
			out.FullyDorm[v] = true
			out.Dormant[v] = true
			out.DormRound[v] = 0
		}
	})

	// Step (3): for each arc (v,w): if v live, hash v and w into H(v);
	// else mark w dormant (half dormant, round 0). The host sweeps the
	// live arcs only: a loop (v,v) would insert v into H(v), which v's
	// first non-loop arc inserts before anything else, or mark a v
	// that is already fully dormant.
	au, av := arcs.U, arcs.V
	dormantNow := make([]int32, n) // marks applied after the step
	m.StepN(arcs.Procs(), arcs.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, w := au[i], av[i]
			if !ongoing[v] || !ongoing[w] {
				continue
			}
			if out.H[v] != nil && !out.FullyDorm[v] {
				out.H[v].TryInsert(v)
				out.H[v].TryInsert(w)
			} else {
				pram.Store32(&dormantNow[w], 1)
			}
		}
	})

	// Step (4): collision detection by re-reading (the §3.3 trick). A
	// loop would re-check v, which every arc out of v checks.
	m.StepN(arcs.Procs(), arcs.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, w := au[i], av[i]
			if !ongoing[v] || !ongoing[w] || out.H[v] == nil {
				continue
			}
			if out.H[v].Collides(v) || out.H[v].Collides(w) {
				pram.Store32(&dormantNow[v], 1)
			}
		}
	})
	m.Step(n, func(v int) {
		if ongoing[v] && dormantNow[v] == 1 && !out.Dormant[v] {
			out.Dormant[v] = true
			out.Live[v] = false
			out.DormRound[v] = 0
		}
	})

	if p.Snapshot {
		out.Snapshots = append(out.Snapshots, snapshotTables(out.H, ongoing))
	}

	// Step (5): distance doubling until tables stabilize.
	maxRounds := p.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	chargedProcs := nOngoing * tableSize * tableSize // one processor per (p,q) cell pair per block
	occAt := make([]int32, n)                        // O(1) per-table snapshots: occupancy prefix lengths
	for r := 1; r <= maxRounds; r++ {
		var newEntry, newDormant int64
		pram.Fill32(dormantNow, 0)
		for v := 0; v < n; v++ {
			if t := out.H[v]; t != nil {
				occAt[v] = t.OccCount()
			}
		}
		oldDormant := make([]bool, n)
		copy(oldDormant, out.Dormant)

		// (5a): one processor per (p,q) table-cell pair in the model;
		// the host iterates per vertex. TryInsert is append-only, so
		// the occupancy prefix recorded above is the round-start
		// snapshot of every table (the PRAM's read-before-write).
		m.StepN(chargedProcs, n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if !ongoing[u] || out.H[u] == nil {
					continue
				}
				for _, v := range out.H[u].OccupiedPrefix(occAt[u]) {
					if oldDormant[v] {
						pram.Store32(&dormantNow[u], 1)
					}
					if ov := out.H[v]; ov != nil {
						for _, w := range ov.OccupiedPrefix(occAt[v]) {
							if out.H[u].TryInsert(w) {
								pram.Store64(&newEntry, 1)
							}
						}
					}
				}
			}
		})

		// (5b): collision check — every source value must occupy its
		// slot in the (now grown) table; losers went to occupied cells.
		collides := func(u int) bool {
			for _, v := range out.H[u].OccupiedPrefix(occAt[u]) {
				if out.H[u].Collides(v) {
					return true
				}
				if ov := out.H[v]; ov != nil {
					for _, w := range ov.OccupiedPrefix(occAt[v]) {
						if out.H[u].Collides(w) {
							return true
						}
					}
				}
			}
			return false
		}
		m.StepN(chargedProcs, n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if ongoing[u] && out.H[u] != nil && collides(u) {
					pram.Store32(&dormantNow[u], 1)
				}
			}
		})

		m.Step(n, func(v int) {
			if ongoing[v] && dormantNow[v] == 1 && !out.Dormant[v] {
				out.Dormant[v] = true
				out.Live[v] = false
				out.DormRound[v] = int32(r)
				pram.Store64(&newDormant, 1)
			}
		})

		out.Rounds = r
		if p.Snapshot {
			out.Snapshots = append(out.Snapshots, snapshotTables(out.H, ongoing))
		}
		if pram.Load64(&newEntry) == 0 && pram.Load64(&newDormant) == 0 {
			return out
		}
	}
	out.NewEntry = true // stopped by the cap; callers treat as a failure event
	return out
}

func snapshotTables(h []*hashing.Table, ongoing []bool) []*hashing.Table {
	out := make([]*hashing.Table, len(h))
	for i, t := range h {
		if t != nil && ongoing[i] {
			out[i] = t.Clone()
		}
	}
	return out
}
