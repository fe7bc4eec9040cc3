package vanilla

import (
	"slices"
	"testing"

	"repro/graph"
	"repro/internal/pram"
)

// refLink is LINK as the paper states it, one arc at a time in arc
// order: if v.l=0 and w.l=1, v.p := w. It returns the parents the pair
// sweep must produce, leaving s unchanged.
func refLink(s *State, phase uint64) []int32 {
	want := slices.Clone(s.D.Parent)
	for i := range s.Arcs.U {
		v, w := s.Arcs.U[i], s.Arcs.V[i]
		if v != w && !leader(s.Coin, phase, v) && leader(s.Coin, phase, w) {
			want[v] = w
		}
	}
	return want
}

// TestRangeStepsMatchReferences checks Vanilla's range-bodied LINK
// against a per-arc reference over every phase of a Gnm run.
func TestRangeStepsMatchReferences(t *testing.T) {
	g := graph.Gnm(1<<13, 1<<14, 5)

	t.Run("VanillaLink", func(t *testing.T) {
		m := pram.New()
		s := NewState(g.N, g.Span(), 7)
		for s.Arcs.Len() > 0 {
			if s.Phase == defaultPhaseCap(g.N) {
				t.Fatalf("arcs still live after %d phases", s.Phase)
			}
			phase := uint64(s.Phase)
			want := refLink(s, phase)
			s.link(m, s.Coin, phase)
			if !slices.Equal(s.D.Parent, want) {
				t.Fatalf("phase %d: LINK differs from the per-arc sweep", phase)
			}
			s.Phase++
			s.D.Shortcut(m)
			s.Arcs.Alter(m, s.D)
		}
	})
}
