package vanilla

import (
	"slices"
	"testing"

	"repro/graph"
	"repro/internal/labels"
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
// against a per-arc reference, and its in-place SHORTCUT against
// Digraph.Shortcut, which reads a snapshot of the old parents, over
// every phase of a run.
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

	t.Run("VanillaShortcut", func(t *testing.T) {
		// A path among isolated vertices also runs the frontier sweep:
		// Verts holds the vertices an arc ends at.
		sparse := graph.Permuted(graph.WithIsolated(graph.Path(3000), 5000), 3)
		for name, gr := range map[string]*graph.Graph{"gnm": g, "sparse": sparse} {
			for _, frontier := range []bool{false, true} {
				m, mRef := pram.New(), pram.New()
				s := NewState(gr.N, gr.Span(), 9)
				if frontier {
					for v, x := range endMarks(gr) {
						if x {
							s.Verts = append(s.Verts, int32(v))
						}
					}
				}
				for more := true; more; more = s.Arcs.HasNonLoop(m) {
					if s.Phase == defaultPhaseCap(gr.N) {
						t.Fatalf("%s: arcs still live after %d phases", name, s.Phase)
					}
					phase := uint64(s.Phase)
					s.Phase++
					s.link(m, s.Coin, phase)
					ref := &labels.Digraph{Parent: slices.Clone(s.D.Parent)}
					before := m.Stats()
					s.shortcut(m)
					mRef.Reset()
					ref.Shortcut(mRef)
					if !slices.Equal(s.D.Parent, ref.Parent) {
						t.Fatalf("%s/frontier=%v phase %d: in-place SHORTCUT differs from the snapshot one",
							name, frontier, phase)
					}
					if got, want := m.Stats().Work-before.Work, mRef.Stats().Work; got != want || m.Stats().Steps-before.Steps != 1 {
						t.Fatalf("%s/frontier=%v phase %d: SHORTCUT charged %d work, want %d in one step",
							name, frontier, phase, got, want)
					}
					s.Arcs.Alter(m, s.D)
				}
			}
		}
	})
}

// endMarks marks the vertices some arc of g ends at.
func endMarks(g *graph.Graph) []bool {
	marks := make([]bool, g.N)
	for i := range g.U {
		marks[g.U[i]], marks[g.V[i]] = true, true
	}
	return marks
}
