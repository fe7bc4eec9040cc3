// Package ccbase implements the O(log d · log log_{m/n} n) Connected
// Components algorithm of Theorem 1 (§B):
//
//	PREPARE; repeat {EXPAND; VOTE; LINK; SHORTCUT; ALTER} until no
//	edge exists other than loops.
//
// PREPARE densifies the instance with Vanilla phases when m/n is small
// (Lemma B.5). Each phase expands neighbour sets by distance doubling
// (package expand), votes leaders (min-id for live vertices, coin flip
// with probability b^{-2/3} for dormant ones — §B.4), links non-leaders
// to leaders, shortcuts and alters. The number of ongoing vertices
// shrinks by a power of δ = m/n′ per phase, giving O(log log_{m/n} n)
// phases of O(log d) time each.
//
// Two execution modes mirror §B.5: ModeCombining assumes the exact
// ongoing count n′ is available each phase (COMBINING CRCW);
// ModeArbitrary uses only the pessimistic estimate ñ with the update
// rule ñ := ñ / b^{1/4}, as required on an ARBITRARY CRCW PRAM.
package ccbase

import (
	"context"
	"math"

	"repro/graph"
	"repro/internal/expand"
	"repro/internal/pram"
	"repro/internal/vanilla"
)

// Mode selects how the per-phase vertex count is obtained (§B.5).
type Mode int

const (
	// ModeCombining computes the exact ongoing count n′ each phase, as
	// a COMBINING CRCW PRAM would with a sum-combining write.
	ModeCombining Mode = iota
	// ModeArbitrary never counts; it uses the update rule of §B.5.
	ModeArbitrary
)

// Params are the scaled constants of the algorithm; each field's
// comment names the paper value it stands in for.
type Params struct {
	Mode Mode
	Seed uint64

	// Ctx, when non-nil, is checked at every phase boundary (and
	// between PREPARE phases): on cancellation the run stops promptly,
	// Result.CtxErr records ctx.Err(), and Result.Labels is nil.
	Ctx context.Context

	// BExp is the exponent in b = δ^BExp (paper: 1/18, scaled default 1/4).
	BExp float64
	// TableFactor sizes tables as TableFactor·b² cells (paper: b⁶ = δ^{1/3}).
	TableFactor float64
	// BlockSlack multiplies the block count: blocks = BlockSlack·b·n′
	// (paper: m/δ^{2/3} blocks so ownership fails w.p. δ^{-1/3}).
	BlockSlack float64
	// PrepDensity is the m/n threshold below which PREPARE runs Vanilla
	// phases (paper: log^c n).
	PrepDensity float64
	// PrepPhases is the number of Vanilla phases PREPARE runs
	// (paper: c·log_{8/7} log n). ≤0 derives 2·ceil(log2 log2 n)+2.
	PrepPhases int
	// MaxPhases caps the main loop; exhausting it sets Result.Failed
	// (the paper's 1/poly bad-probability event). ≤0 derives a default.
	MaxPhases int
	// MaxExpandRounds caps EXPAND's inner doubling loop (≥ log2 d + 2).
	MaxExpandRounds int
	// MinLeaderProb floors the dormant-leader coin so tiny instances
	// cannot stall (the paper's asymptotics make this irrelevant).
	MinLeaderProb float64
}

// DefaultParams returns the scaled defaults used by the experiments.
func DefaultParams(seed uint64) Params {
	return Params{
		Mode:          ModeArbitrary,
		Seed:          seed,
		BExp:          0.25,
		TableFactor:   4,
		BlockSlack:    2,
		PrepDensity:   8,
		MinLeaderProb: 0.05,
	}
}

// PhaseTrace records one phase for the experiment tables.
type PhaseTrace struct {
	Ongoing      int // ongoing vertices at phase start (exact, host-counted for reporting)
	Estimate     int // ñ used for parameters (equals Ongoing in ModeCombining)
	B            float64
	ExpandRounds int   // distance-doubling iterations in EXPAND
	Live         int   // live vertices after EXPAND
	TableSpace   int64 // words allocated to tables this phase
}

// Result is the outcome of the algorithm.
type Result struct {
	Labels []int32
	Phases int
	Prep   int // Vanilla phases run by PREPARE
	Trace  []PhaseTrace
	Failed bool // MaxPhases exhausted with non-loop edges left
	// CtxErr is ctx.Err() when Params.Ctx was cancelled mid-run; Labels
	// is nil in that case.
	CtxErr error
	Stats  pram.Stats
}

// Run executes Connected Components algorithm on g.
func Run(m *pram.Machine, g *graph.Graph, p Params) Result {
	if p.BExp == 0 {
		p = fillDefaults(p)
	}
	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N
	mEdges := maxInt(g.NumEdges(), 1)
	if err := ctx.Err(); err != nil {
		return Result{CtxErr: err}
	}

	st := vanilla.NewState(g.N, g.Span(), p.Seed)

	// PREPARE (§B.2): densify sparse instances with Vanilla phases.
	prep := 0
	if float64(mEdges)/float64(maxInt(n, 1)) <= p.PrepDensity {
		phases := p.PrepPhases
		if phases <= 0 {
			phases = 2*ceilLog2(ceilLog2(n)+1) + 2
		}
		for i := 0; i < phases; i++ {
			if err := ctx.Err(); err != nil {
				return Result{CtxErr: err, Prep: prep, Stats: m.Stats()}
			}
			prep++
			if !st.RunPhase(m) {
				break
			}
		}
	}

	// ñ initialisation (§B.5): n in the dense case; the PREPARE shrink
	// estimate otherwise (Corollary B.4's (7/8)^k expectation bound).
	estimate := float64(n)
	if prep > 0 {
		estimate = float64(n) * math.Pow(7.0/8.0, float64(prep))
		if estimate < 1 {
			estimate = 1
		}
	}

	res := Result{Prep: prep}
	ongoing := make([]int32, n)
	ongoingB := make([]bool, n)
	incident := make([]int32, n)

	maxPhases := p.MaxPhases
	if maxPhases <= 0 {
		maxPhases = 8*ceilLog2(n) + 64
	}

	coin := pram.Coin{Seed: p.Seed ^ 0xcbf29ce484222325}
	leader := make([]int32, n)

	for phase := 0; ; phase++ {
		if err := ctx.Err(); err != nil {
			res.CtxErr = err
			res.Stats = m.Stats()
			return res
		}
		// Identify ongoing vertices: roots with an incident non-loop
		// edge (Lemma B.2; trees are flat at phase start).
		st.Arcs.MarkIncident(m, incident)
		m.Step(n, func(v int) {
			if st.D.Parent[v] == int32(v) && incident[v] == 1 {
				ongoing[v] = 1
				ongoingB[v] = true
			} else {
				ongoing[v] = 0
				ongoingB[v] = false
			}
		})
		// Exact count: one combining write in ModeCombining; in
		// ModeArbitrary it is host-side reporting only.
		nOngoing := 0
		for v := 0; v < n; v++ {
			if ongoing[v] == 1 {
				nOngoing++
			}
		}
		if p.Mode == ModeCombining {
			m.ChargeSteps(1) // the sum-combining concurrent write
			estimate = float64(nOngoing)
		}
		if nOngoing == 0 {
			break
		}
		if phase >= maxPhases {
			res.Failed = true
			break
		}

		// Per-phase parameters from δ = m/ñ (§B.3.1, scaled).
		if estimate < 1 {
			estimate = 1
		}
		delta := math.Max(2, float64(mEdges)/estimate)
		b := math.Max(2, math.Pow(delta, p.BExp))
		tableSize := int(p.TableFactor * b * b)
		if tableSize < 8 {
			tableSize = 8
		}
		blockSlack := p.BlockSlack * b

		spaceBefore := m.Stats().Space
		exp := expand.Run(m, st.Arcs, ongoingB, expand.Params{
			BlockSlack: blockSlack,
			TableSize:  tableSize,
			MaxRounds:  p.MaxExpandRounds,
			Round:      uint64(phase) + 1,
			Seed:       p.Seed,
		})

		// VOTE (§B.4).
		q := math.Pow(b, -2.0/3.0)
		if q < p.MinLeaderProb {
			q = p.MinLeaderProb
		}
		m.Step(n, func(u int) {
			if ongoing[u] == 0 {
				leader[u] = 0
				return
			}
			if exp.Live[u] {
				// Leader iff minimal in its table (which holds its
				// whole component — Lemma B.7 discussion).
				l := int32(1)
				for _, v := range exp.H[u].Occupied() {
					if v < int32(u) {
						l = 0
						break
					}
				}
				leader[u] = l
			} else {
				if coin.Bernoulli(uint64(phase)+1, uint64(u), q) {
					leader[u] = 1
				} else {
					leader[u] = 0
				}
			}
		})

		// LINK: ongoing non-leader v links to any leader in its
		// neighbour set (table entries plus direct arc neighbours).
		par := st.D.Parent
		m.Step(n, func(v int) {
			if ongoing[v] == 0 || leader[v] == 1 {
				return
			}
			if t := exp.H[v]; t != nil {
				for _, w := range t.Occupied() {
					if w != int32(v) && leader[w] == 1 && ongoing[w] == 1 {
						par[v] = w
						return
					}
				}
			}
		})
		// Loops never link, so the host sweeps the live arcs only.
		au, av := st.Arcs.U, st.Arcs.V
		m.StepN(st.Arcs.Procs(), st.Arcs.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v, w := au[i], av[i]
				if v == w || ongoing[v] == 0 || ongoing[w] == 0 {
					continue
				}
				if leader[v] == 0 && leader[w] == 1 && par[v] == v {
					par[v] = w
				}
			}
		})

		// SHORTCUT; ALTER.
		st.D.Shortcut(m)
		st.Arcs.Alter(m, st.D)

		liveCount := 0
		for v := 0; v < n; v++ {
			if ongoingB[v] && exp.Live[v] {
				liveCount++
			}
		}
		res.Trace = append(res.Trace, PhaseTrace{
			Ongoing:      nOngoing,
			Estimate:     int(estimate),
			B:            b,
			ExpandRounds: exp.Rounds,
			Live:         liveCount,
			TableSpace:   m.Stats().Space - spaceBefore,
		})
		res.Phases++

		// Release table space (the paper reuses the processor pool).
		m.Free(int(m.Stats().Space - spaceBefore))

		// ñ update rule (§B.5).
		if p.Mode == ModeArbitrary {
			estimate = estimate / math.Pow(b, 0.25)
			if estimate < 1 {
				estimate = 1
			}
		}
	}

	st.D.Flatten(m)
	res.Labels = st.D.Parent
	res.Stats = m.Stats()
	return res
}

func fillDefaults(p Params) Params {
	d := DefaultParams(p.Seed)
	d.Mode = p.Mode
	d.Ctx = p.Ctx
	if p.MaxPhases > 0 {
		d.MaxPhases = p.MaxPhases
	}
	if p.MaxExpandRounds > 0 {
		d.MaxExpandRounds = p.MaxExpandRounds
	}
	if p.PrepPhases > 0 {
		d.PrepPhases = p.PrepPhases
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func ceilLog2(n int) int {
	l := 0
	for x := 1; x < n; x <<= 1 {
		l++
	}
	return l
}
