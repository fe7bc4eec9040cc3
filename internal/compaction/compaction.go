// Package compaction implements approximate compaction (Definition D.1):
// given a length-n array with k distinguished elements, map the
// distinguished elements one-to-one into an array of length 2k.
//
// The paper uses Goodrich's algorithm [Goo91] as a black box with two
// charged costs (Lemma D.2): O(log* n) time with O(n) processors, or
// O(1) time with n·log n processors. We implement the natural hashing
// realization — repeatedly hash the still-unplaced elements into the
// target array with fresh pairwise-independent functions, keeping
// first-committed winners — and charge the lemma's cost. The retry
// count is exposed so experiments can confirm it stays O(log* n)-ish.
package compaction

import (
	"repro/internal/hashing"
	"repro/internal/pram"
)

// Result describes one compaction run.
type Result struct {
	Indices []int32 // for each input element: target index, or -1 if not distinguished
	Size    int     // length of the target array (≥ 2k)
	Rounds  int     // hashing rounds used
	Failed  bool    // true if MaxRounds was exhausted (callers treat as a bad-probability event)
}

// MaxRounds bounds the retry loop; exceeding it is the "fails with
// probability 1/poly(n)" event of Lemma D.2.
const MaxRounds = 64

// Compact maps the distinguished elements (marked true) one-to-one into
// [0, size) with size = max(2·k, 1). fam provides the hash functions;
// cost selects the charged PRAM time per Lemma D.2: if plentiful is
// true the caller has ≥ n·log n processors and O(1) time is charged,
// otherwise O(log* n) (we charge 4, the value of log* for any
// practically representable n).
func Compact(m *pram.Machine, fam hashing.Family, distinguished []bool, plentiful bool) Result {
	n := len(distinguished)
	k := 0
	for _, d := range distinguished {
		if d {
			k++
		}
	}
	size := 2 * k
	if size == 0 {
		size = 1
	}
	res := Result{Indices: make([]int32, n), Size: size}
	for i := range res.Indices {
		res.Indices[i] = -1
	}
	if k == 0 {
		return res
	}

	slots := make([]int32, size)
	for i := range slots {
		slots[i] = -1
	}
	pending := make([]int32, 0, k)
	for i, d := range distinguished {
		if d {
			pending = append(pending, int32(i))
		}
	}

	cost := 4 // log*(n) for any real n
	if plentiful {
		cost = 1
	}
	round := 0
	for len(pending) > 0 {
		if round >= MaxRounds {
			res.Failed = true
			break
		}
		h := fam.At(uint64(round))
		cur := pending
		// Write phase: every pending element claims a free slot (a
		// guarded write: the lowest-index claimant wins).
		m.StepCost(cost, len(cur), func(i int) {
			e := cur[i]
			if s := h.Slot(uint64(e), size); slots[s] == -1 {
				slots[s] = e
			}
		})
		// Read phase: winners record their index, losers retry. The
		// losers go to a fresh slice: appending into the array being
		// iterated would overwrite elements of cur not yet read.
		var next []int32
		m.Step(len(cur), func(i int) {
			e := cur[i]
			s := h.Slot(uint64(e), size)
			if slots[s] == e {
				res.Indices[e] = int32(s)
			} else {
				next = append(next, e)
			}
		})
		pending = next
		res.Rounds = round + 1
		round++
	}
	return res
}
