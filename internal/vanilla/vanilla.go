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
}

// NewState initializes the self-labeled digraph and arc store for n
// vertices and the columnar arc span — the same SoA view the native
// and incremental engines ingest, so simulator callers pass g.Span()
// (or any loader/replay span) without boxing. The span's arcs must come
// in mirror pairs, as a Graph's do: LINK sweeps them pairwise.
func NewState(n int, span graph.EdgeSpan, seed uint64) *State {
	return &State{
		D:    labels.NewSelfLabeled(n),
		Arcs: labels.NewArcStore(span),
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

	// SHORTCUT; ALTER.
	s.D.Shortcut(m)
	s.Arcs.Alter(m, s.D)

	return s.Arcs.HasNonLoop(m)
}

// link is LINK: for each graph arc (v,w): if v.l=0 and w.l=1, v.p := w.
// Trees are flat at phase start (Lemma B.2), so v and w are roots;
// concurrent writes to v.p resolve arbitrarily. Loops never link, so
// the host sweeps the live arcs only, and it sweeps them as mirror
// pairs: arcs 2k and 2k+1 are (v,w) and (w,v), since the input arcs
// come in mirror pairs and ALTER's loop drop keeps them adjacent. A
// pair's two processors read the same two votes, so the host draws
// each once and runs arc 2k before arc 2k+1 (at most one of them
// writes). The step still charges one processor per arc.
func (s *State) link(m *pram.Machine, coin pram.Coin, phase uint64) {
	au, av, par := s.Arcs.U, s.Arcs.V, s.D.Parent
	m.StepN(s.Arcs.Procs(), s.Arcs.Len()/2, func(lo, hi int) {
		u, v := au[2*lo:2*hi], av[2*lo:2*hi]
		v = v[:len(u)]
		for i := 0; i < len(u); i += 2 {
			a, b := u[i], v[i]
			if a == b {
				continue
			}
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
