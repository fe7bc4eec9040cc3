package vanilla

import (
	"repro/graph"
	"repro/internal/pram"
)

// SFState extends State with the spanning-forest bookkeeping of §C.1:
// per-vertex chosen arc v.e (an index into the current arc store, whose
// Orig field is v.eˆ), and the forest marks eˆ.f on original arcs.
type SFState struct {
	State
	ChosenArc []int32 // v.e: current arc index chosen by MARK-EDGE, -1 if none
	ForestArc []bool  // eˆ.f indexed by original arc index
}

// NewSFState initializes Vanilla-SF state for n vertices and the
// columnar arc span (see NewState).
func NewSFState(n int, span graph.EdgeSpan, seed uint64) *SFState {
	s := &SFState{
		State:     *NewState(n, span, seed),
		ChosenArc: make([]int32, n),
		ForestArc: make([]bool, len(span.U)),
	}
	return s
}

// RunPhase executes one Vanilla-SF phase: RANDOM-VOTE; MARK-EDGE;
// LINK; SHORTCUT; ALTER. Returns whether non-loop edges remain.
func (s *SFState) RunPhase(m *pram.Machine) bool {
	n := s.D.N()
	coin := s.Coin
	phase := uint64(s.Phase)
	s.Phase++

	// RANDOM-VOTE: charged in full; MARK-EDGE draws the votes it reads.
	m.StepN(n, 0, nil)

	// MARK-EDGE: for each current arc e=(v,w): if v.l=0 and w.l=1 then
	// v.e := e (arbitrary winner). Loops are never marked, so the host
	// sweeps the live arcs only; e indexes the live view, which stays
	// fixed until ALTER.
	au, av := s.Arcs.U, s.Arcs.V
	chosen := s.ChosenArc
	pram.Fill32(chosen, -1)
	m.StepN(s.Arcs.Procs(), s.Arcs.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, w := au[i], av[i]
			if v != w && !leader(coin, phase, v) && leader(coin, phase, w) {
				chosen[v] = int32(i)
			}
		}
	})

	// LINK: if u.e=(u,w) exists: u.p := w; u.eˆ.f := 1.
	par := s.D.Parent
	orig := s.Arcs.Orig
	m.Step(n, func(u int) {
		e := chosen[u]
		if e < 0 {
			return
		}
		par[u] = av[e]
		if o := orig[e]; o >= 0 {
			s.ForestArc[o] = true
		}
	})

	s.D.Shortcut(m)
	s.Arcs.Alter(m, s.D)
	return s.Arcs.HasNonLoop(m)
}

// ForestEdges returns the marked original edges as arc-pair indices
// (index i is arcs 2i and 2i+1 of g.U/g.V), deduplicated across
// directions.
func (s *SFState) ForestEdges() []int {
	var out []int
	for a, marked := range s.ForestArc {
		if marked && a%2 == 0 {
			out = append(out, a/2)
		}
	}
	for a, marked := range s.ForestArc {
		if marked && a%2 == 1 && !s.ForestArc[a-1] {
			out = append(out, a/2)
		}
	}
	return out
}

// SFResult is the outcome of a complete Vanilla-SF run.
type SFResult struct {
	Labels      []int32
	ForestEdges []int // arc-pair indices: i is arcs 2i, 2i+1 of g.U/g.V
	Phases      int
	Stats       pram.Stats
}

// RunSF executes Vanilla-SF until only loops remain.
func RunSF(m *pram.Machine, g *graph.Graph, seed uint64, maxPhases int) SFResult {
	s := NewSFState(g.N, g.Span(), seed)
	if maxPhases <= 0 {
		maxPhases = defaultPhaseCap(g.N)
	}
	for s.RunPhase(m) && s.Phase < maxPhases {
	}
	s.D.Flatten(m)
	return SFResult{
		Labels:      s.D.Parent,
		ForestEdges: s.ForestEdges(),
		Phases:      s.Phase,
		Stats:       m.Stats(),
	}
}
