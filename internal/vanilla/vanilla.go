// Package vanilla implements Reif's randomized algorithm in the
// paper's framework (§B.1) and its spanning-forest extension
// Vanilla-SF (§C.1). Each phase is RANDOM-VOTE; LINK; SHORTCUT; ALTER
// and finishes each vertex with constant probability, so the algorithm
// runs in O(log n) phases w.h.p. (Lemma B.3, Corollary B.4). It doubles
// as the PREPARE / FOREST-PREPARE subroutine of the main algorithms.
package vanilla

import (
	"repro/graph"
	"repro/internal/labels"
	"repro/internal/pram"
)

// State is the mutable execution state, shared with callers that embed
// vanilla phases as preprocessing (PREPARE in §B.2, COMPACT in §D).
type State struct {
	D     *labels.Digraph
	Arcs  *labels.ArcStore
	Coin  pram.Coin
	Phase int // phases executed so far

	// Verts, if set, is the host frontier of SHORTCUT: ascending, and
	// holding every vertex an arc ends at. A vertex off it is isolated,
	// a root that no arc reaches in any phase, so its SHORTCUT processor
	// stores the parent it has. Nil means every vertex.
	Verts []int32
}

// NewState initializes the self-labeled digraph and arc store for n
// vertices and the columnar arc span — the same SoA view the native
// and incremental engines ingest, so simulator callers pass g.Span()
// (or any loader/replay span) without boxing. The span's arcs must come
// in mirror pairs, as a Graph's do: LINK sweeps them pairwise.
func NewState(n int, span graph.EdgeSpan, seed uint64) *State {
	return newState(n, labels.NewArcStore(span), seed)
}

func newState(n int, arcs *labels.ArcStore, seed uint64) *State {
	return &State{
		D:    labels.NewSelfLabeled(n),
		Arcs: arcs,
		Coin: pram.Coin{Seed: seed},
	}
}

// leader reports u.l, u's RANDOM-VOTE in the given phase: 1 with
// probability 1/2. The coin is counter-based, so the step that reads a
// vote draws it there and then, with the value RANDOM-VOTE would have
// stored. It is c.Bernoulli(phase, u, 0.5) read off the draw's top bit:
// Float < 1/2 exactly when that bit is 0.
func leader(c pram.Coin, phase uint64, u int32) bool {
	return c.U64(phase, uint64(u))>>63 == 0
}

// RunPhase executes one phase of Vanilla algorithm and reports whether
// any non-loop edge remains (the repeat-loop condition).
func (s *State) RunPhase(m *pram.Machine) bool {
	coin := s.Coin
	phase := uint64(s.Phase)
	s.Phase++

	// RANDOM-VOTE: u.l := 1 with probability 1/2. The step charges its
	// n processors; the host runs none, since LINK draws each vote it
	// reads (see leader).
	m.StepN(s.D.N(), 0, nil)

	s.link(m, coin, phase)
	s.shortcut(m)
	s.Arcs.Alter(m, s.D)
	return s.Arcs.HasNonLoop(m)
}

// shortcut is SHORTCUT, v.p := v.p.p for every v, run in place: the
// host reads the parents it is rewriting, with no snapshot of the old
// ones. On a general forest that could read a grandparent one step
// early; after a Vanilla LINK it cannot. Trees are flat at phase start
// (Lemma B.2) and LINK moves only follower roots, each onto a leader,
// which stays a root. So v.p is an unlinked root or a leader, whose
// parent is itself, or a linked follower, whose parent is a leader;
// either way SHORTCUT leaves v.p's own parent as it was, and v reads
// the same v.p.p whether or not v.p has run yet. The step charges n
// processors, like Digraph.Shortcut; the host runs Verts if set.
func (s *State) shortcut(m *pram.Machine) {
	par := s.D.Parent
	if s.Verts == nil {
		m.StepRange(len(par), func(lo, hi int) {
			for v := lo; v < hi; v++ {
				par[v] = par[par[v]]
			}
		})
		return
	}
	m.StepN(len(par), len(s.Verts), func(lo, hi int) {
		for _, v := range s.Verts[lo:hi] {
			par[v] = par[par[v]]
		}
	})
}

// link is LINK: for each graph arc (v,w): if v.l=0 and w.l=1, v.p := w.
// Trees are flat at phase start (Lemma B.2), so v and w are roots;
// concurrent writes to v.p resolve arbitrarily. Loops never link, so
// the host sweeps the live arcs only, none of them a loop, and it
// sweeps them as mirror pairs: arcs 2k and 2k+1 are (v,w) and (w,v),
// since the input arcs come in mirror pairs and the store's loop drops
// keep them adjacent. A pair's two processors read the same two votes,
// so the host draws each once and runs arc 2k before arc 2k+1 (at most
// one of them writes). The step still charges one processor per arc.
func (s *State) link(m *pram.Machine, coin pram.Coin, phase uint64) {
	au, av, par := s.Arcs.U, s.Arcs.V, s.D.Parent
	m.StepN(s.Arcs.Procs(), s.Arcs.Len()/2, func(lo, hi int) {
		u, v := au[2*lo:2*hi], av[2*lo:2*hi]
		v = v[:len(u)]
		for i := 0; i < len(u); i += 2 {
			a, b := u[i], v[i]
			la, lb := leader(coin, phase, a), leader(coin, phase, b)
			if !la && lb {
				par[a] = b // arc (a,b)
			} else if la && !lb {
				par[b] = a // its mirror (b,a)
			}
		}
	})
}

// Result is the outcome of a complete run.
type Result struct {
	Labels []int32 // final component labels (root of each tree)
	Phases int
	Stats  pram.Stats
}

// Run executes Vanilla algorithm until only loops remain. maxPhases
// bounds the loop defensively (≤0 means 4·log2(n)+32).
func Run(m *pram.Machine, g *graph.Graph, seed uint64, maxPhases int) Result {
	s := NewState(g.N, g.Span(), seed)
	if maxPhases <= 0 {
		maxPhases = defaultPhaseCap(g.N)
	}
	for s.RunPhase(m) && s.Phase < maxPhases {
	}
	// All trees are flat and each component has one root (Lemma B.2).
	s.D.Flatten(m)
	return Result{Labels: s.D.Parent, Phases: s.Phase, Stats: m.Stats()}
}

func defaultPhaseCap(n int) int {
	limit := 32
	for x := n; x > 0; x >>= 1 {
		limit += 4
	}
	return limit
}
