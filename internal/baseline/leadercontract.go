package baseline

import (
	"math"
	"sort"

	"repro/graph"
	"repro/internal/pram"
)

// LeaderContraction is the degree-aware leader-sampling scheme the
// paper attributes to Andoni et al. (§A.1): when every vertex has
// degree ≥ b, sampling leaders with probability Θ(log n / b) leaves
// every non-leader a leader neighbour w.h.p., so one contraction round
// shrinks the vertex set by a factor ≈ b/log n. Without the EXPAND
// densification the degree never grows, so on sparse graphs this
// degenerates gracefully toward Reif's algorithm — which is exactly
// the gap (the log log_{m/n} n progression) that the paper's EXPAND
// machinery exists to close. Useful as the "contraction without
// expansion" baseline in the ablation discussion.
func LeaderContraction(m *pram.Machine, g *graph.Graph) ParallelResult {
	n := g.N
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	au := make([]int32, len(g.U))
	av := make([]int32, len(g.V))
	copy(au, g.U)
	copy(av, g.V)
	deg := make([]int64, n)
	leader := make([]int32, n)
	snap := make([]int32, n)
	coin := pram.Coin{Seed: 0x5ca1ab1e}

	logn := math.Log(float64(n) + 2)
	rounds := 0
	for {
		rounds++
		// Current degree of each root (loops excluded): one combining
		// add per arc (charged as one CRCW step, as in the MPC round).
		pram.Fill64(deg, 0)
		m.Step(len(au), func(i int) {
			if au[i] != av[i] {
				deg[au[i]]++ // a sum-combining write (COMBINING CRCW / MPC aggregation)
			}
		})
		// Leader sampling with per-vertex probability Θ(log n / deg),
		// capped at 1/2 — on low-degree graphs the scheme must not
		// saturate to all-leaders (Reif's constant is the floor the
		// scheme degenerates to).
		m.Step(n, func(v int) {
			leader[v] = 0
			if deg[v] == 0 {
				return
			}
			prob := math.Min(0.5, 2*logn/float64(deg[v]))
			if coin.Bernoulli(uint64(rounds), uint64(v), prob) {
				leader[v] = 1
			}
		})
		// Non-leader roots link to an arbitrary leader neighbour.
		copy(snap, p)
		m.Step(len(au), func(i int) {
			x, y := au[i], av[i]
			if x == y || leader[x] == 1 || leader[y] == 0 {
				return
			}
			if snap[x] == x { // x still a root
				p[x] = y
			}
		})
		// Shortcut until flat (leaders are roots, so height ≤ 2).
		copy(snap, p)
		m.Step(n, func(i int) {
			p[i] = snap[snap[i]]
		})
		// Alter, then deduplicate arcs: the sampling probability needs
		// DISTINCT degrees. Andoni et al. deduplicate by sorting on the
		// MPC (the paper replaces that with hashing); the host sort
		// here stands in for that primitive at its O(1)-round cost.
		m.Step(len(au), func(i int) {
			au[i] = p[au[i]]
			av[i] = p[av[i]]
		})
		m.ChargeSteps(1)
		au, av = dedupArcs(au, av)
		// Converged when no non-loop arcs remain.
		var active int64
		m.Step(len(au), func(i int) {
			if au[i] != av[i] {
				active = 1
			}
		})
		if active == 0 {
			break
		}
		if rounds > 64*bitsLen(n)+64 {
			break // safety net; callers verify against an oracle
		}
	}
	// Canonicalize labels to roots.
	for {
		stable := true
		for i := 0; i < n; i++ {
			if p[p[i]] != p[i] {
				p[i] = p[p[i]]
				stable = false
			}
		}
		if stable {
			break
		}
	}
	return ParallelResult{Labels: p, Rounds: rounds, Stats: m.Stats()}
}

// dedupArcs removes duplicate and self-loop arcs in place.
func dedupArcs(au, av []int32) ([]int32, []int32) {
	pairs := make([]uint64, 0, len(au))
	for i := range au {
		if au[i] != av[i] {
			pairs = append(pairs, uint64(uint32(au[i]))<<32|uint64(uint32(av[i])))
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	au, av = au[:0], av[:0]
	var prev uint64 = 1<<63 | 1 // impossible value for int32 pairs
	for _, p := range pairs {
		if p == prev {
			continue
		}
		prev = p
		au = append(au, int32(p>>32))
		av = append(av, int32(uint32(p)))
	}
	return au, av
}

func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}
