// Package spanning implements the Spanning Forest algorithm of
// Theorem 2 (§C):
//
//	FOREST-PREPARE; repeat {EXPAND; VOTE; TREE-LINK; TREE-SHORTCUT;
//	ALTER} until no edge exists other than loops.
//
// TREE-LINK (§C.3) assigns every vertex u the largest radius u.α such
// that B(u, u.α) contains neither collisions, leaders, nor fully
// dormant vertices (maintained in a hash table Q(u) by halving the
// doubling radius, Lemma C.4), derives u.β = distance to the nearest
// leader (Lemma C.5), and links each vertex with β = x to a neighbour
// with β = x−1 along a current graph arc whose original arc is marked
// into the forest (Lemma C.6, Corollary C.7). Links strictly decrease
// β, so no cycle forms and tree heights stay ≤ d (Lemma C.8).
package spanning

import (
	"context"
	"math"

	"repro/graph"
	"repro/internal/ccbase"
	"repro/internal/expand"
	"repro/internal/hashing"
	"repro/internal/pram"
	"repro/internal/vanilla"
)

// Params reuses the Theorem 1 parameterization (§C.4: "the remaining
// analysis is almost identical").
type Params = ccbase.Params

// DefaultParams returns the scaled defaults.
func DefaultParams(seed uint64) Params { return ccbase.DefaultParams(seed) }

// PhaseTrace records one phase for the experiment tables.
type PhaseTrace struct {
	Ongoing      int
	B            float64
	ExpandRounds int
	TreeShortcut int // TREE-SHORTCUT iterations (≈ log of tree height ≤ log d)
	Linked       int // vertices that linked in TREE-LINK
}

// Result is the outcome of the algorithm.
type Result struct {
	Labels      []int32
	ForestEdges []int // arc-pair indices: i is arcs 2i, 2i+1 of g.U/g.V
	Phases      int
	Prep        int
	Trace       []PhaseTrace
	Failed      bool
	// CtxErr is ctx.Err() when Params.Ctx was cancelled mid-run; Labels
	// and ForestEdges are nil in that case.
	CtxErr error
	Stats  pram.Stats
}

// ForestSpan materializes the forest edges as a columnar arc-pair span
// over the graph the result was computed from — the SoA view of
// ForestEdges, in the same index order, with mirror arcs, ready for
// zero-copy ingestion by the engines (graph.EdgeSpan is the uniform
// edge currency of the data path). Returns an empty span when the run
// failed or was cancelled.
func (r *Result) ForestSpan(g *graph.Graph) graph.EdgeSpan {
	u := make([]int32, 0, 2*len(r.ForestEdges))
	v := make([]int32, 0, 2*len(r.ForestEdges))
	span := g.Span()
	for _, idx := range r.ForestEdges {
		a, b := span.Edge(idx)
		u = append(u, a, b)
		v = append(v, b, a)
	}
	return graph.EdgeSpan{U: u, V: v}
}

// Run executes Spanning Forest algorithm on g.
func Run(m *pram.Machine, g *graph.Graph, p Params) Result {
	if p.BExp == 0 {
		d := DefaultParams(p.Seed)
		d.Mode, d.Ctx = p.Mode, p.Ctx
		p = d
	}
	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N
	mEdges := max(g.NumEdges(), 1)
	if err := ctx.Err(); err != nil {
		return Result{CtxErr: err}
	}

	st := vanilla.NewSFState(g.N, g.Span(), p.Seed)

	// FOREST-PREPARE: Vanilla-SF phases on sparse inputs.
	prep := 0
	if float64(mEdges)/float64(max(n, 1)) <= p.PrepDensity {
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
	estimate := float64(n)
	if prep > 0 {
		estimate = math.Max(1, float64(n)*math.Pow(7.0/8.0, float64(prep)))
	}

	res := Result{Prep: prep}
	ongoing := make([]int32, n)
	ongoingB := make([]bool, n)
	incident := make([]bool, n)
	leader := make([]int32, n)
	alpha := make([]int32, n)
	beta := make([]int32, n)
	leaderNbr := make([]int32, n)
	chosen := make([]int32, n)
	coin := pram.Coin{Seed: p.Seed ^ 0x9e3779b97f4a7c15}

	maxPhases := p.MaxPhases
	if maxPhases <= 0 {
		maxPhases = 8*ceilLog2(n) + 64
	}

	for phase := 0; ; phase++ {
		if err := ctx.Err(); err != nil {
			res.CtxErr = err
			res.Labels, res.ForestEdges = nil, nil
			res.Stats = m.Stats()
			return res
		}
		st.Arcs.MarkIncident(m, incident)
		m.Step(n, func(v int) {
			if st.D.Parent[v] == int32(v) && incident[v] {
				ongoing[v] = 1
				ongoingB[v] = true
			} else {
				ongoing[v] = 0
				ongoingB[v] = false
			}
		})
		nOngoing := 0
		for v := 0; v < n; v++ {
			if ongoing[v] == 1 {
				nOngoing++
			}
		}
		if p.Mode == ccbase.ModeCombining {
			m.ChargeSteps(1)
			estimate = float64(nOngoing)
		}
		if nOngoing == 0 {
			break
		}
		if phase >= maxPhases {
			res.Failed = true
			break
		}

		if estimate < 1 {
			estimate = 1
		}
		delta := math.Max(2, float64(mEdges)/estimate)
		b := math.Max(2, math.Pow(delta, p.BExp))
		tableSize := int(p.TableFactor * b * b)
		if tableSize < 8 {
			tableSize = 8
		}

		spaceBefore := m.Stats().Space

		// EXPAND with per-round snapshots (the H_j(u) of §C.3).
		exp := expand.Run(m, st.Arcs, ongoingB, expand.Params{
			BlockSlack: p.BlockSlack * b,
			TableSize:  tableSize,
			MaxRounds:  p.MaxExpandRounds,
			Snapshot:   true,
			Round:      uint64(phase) + 1,
			Seed:       p.Seed,
		})

		// VOTE (identical to §B.4).
		q := math.Pow(b, -2.0/3.0)
		if q < p.MinLeaderProb {
			q = p.MinLeaderProb
		}
		m.Step(n, func(u int) {
			leader[u] = 0
			if ongoing[u] == 0 {
				return
			}
			if exp.Live[u] {
				l := int32(1)
				t := exp.H[u]
				for c := 0; c < t.Size(); c++ {
					if v := t.At(c); v != -1 && v < int32(u) {
						l = 0
						break
					}
				}
				leader[u] = l
			} else if coin.Bernoulli(uint64(phase)+1, uint64(u), q) {
				leader[u] = 1
			}
		})

		// TREE-LINK Steps (1)-(5): compute α, β, and witness arcs
		// (treelink.go; factored out for the Lemma C.4-C.6 tests).
		hQ := hashing.Family{Seed: p.Seed ^ (uint64(phase)+1)*0x85ebca6b}.At(7)
		treeLink(treeLinkInput{
			M: m, Arcs: st.Arcs, Exp: exp,
			Ongoing: ongoing, Leader: leader,
			TableSize: tableSize, HashQ: hQ, NOngoing: nOngoing,
		}, alpha, beta, leaderNbr, chosen)

		// TREE-LINK Step (6): link and mark the forest arc.
		par := st.D.Parent
		orig := st.Arcs.Orig
		arcV := st.Arcs.V
		m.Step(n, func(u int) {
			e := chosen[u]
			if e < 0 {
				return
			}
			par[u] = arcV[e]
			st.ForestArc[orig[e]] = true
		})
		linked := 0
		for v := 0; v < n; v++ {
			if chosen[v] >= 0 {
				linked++
			}
		}

		// Release this phase's table space (the pool is reused).
		m.Free(int(m.Stats().Space - spaceBefore))

		// TREE-SHORTCUT: repeat shortcut until no parent changes. The
		// pass count is bounded by the forest depth, but each pass is a
		// full m.Step over n vertices, so cancellation must be able to
		// land between passes like at any other round boundary.
		shortcuts := 0
		for {
			if err := ctx.Err(); err != nil {
				res.CtxErr = err
				res.Labels, res.ForestEdges = nil, nil
				res.Stats = m.Stats()
				return res
			}
			shortcuts++
			if st.D.Shortcut(m) == 0 {
				break
			}
		}
		// ALTER.
		st.Arcs.Alter(m, st.D)

		res.Trace = append(res.Trace, PhaseTrace{
			Ongoing:      nOngoing,
			B:            b,
			ExpandRounds: exp.Rounds,
			TreeShortcut: shortcuts,
			Linked:       linked,
		})
		res.Phases++

		if p.Mode == ccbase.ModeArbitrary {
			estimate = math.Max(1, estimate/math.Pow(b, 0.25))
		}
	}

	st.D.Flatten(m)
	res.Labels = st.D.Parent
	res.ForestEdges = st.ForestEdges()
	res.Stats = m.Stats()
	return res
}

func ceilLog2(n int) int {
	l := 0
	for x := 1; x < n; x <<= 1 {
		l++
	}
	return l
}
