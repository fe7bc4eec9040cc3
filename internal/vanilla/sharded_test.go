package vanilla

import (
	"slices"
	"testing"

	"repro/graph"
	"repro/internal/pram"
)

// shardedN is large enough that LINK's pair sweep exceeds the
// machine's 256-iteration sequential threshold, so on pram.New(2) its
// range bodies run as concurrently claimed chunks.
const shardedN = 1 << 13

// refLink is LINK as the paper states it, one arc at a time in arc
// order: if v.l=0 and w.l=1, v.p := w. It returns the parents the pair
// sweep must produce on a one-worker machine, leaving s unchanged.
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

// TestShardedRangeSteps checks Vanilla's range-bodied LINK against a
// per-arc sequential reference over several phases of a Gnm run.
func TestShardedRangeSteps(t *testing.T) {
	g := graph.Gnm(shardedN, 2*shardedN, 5)

	t.Run("VanillaLink", func(t *testing.T) {
		for _, workers := range []int{1, 2} {
			m := pram.New(workers)
			s := NewState(g.N, g.Span(), 7)
			for s.Arcs.Len() > 0 {
				if s.Phase == defaultPhaseCap(g.N) {
					t.Fatalf("%d workers: arcs still live after %d phases", workers, s.Phase)
				}
				phase := uint64(s.Phase)
				before := slices.Clone(s.D.Parent)
				want := refLink(s, phase)
				s.link(m, s.Coin, phase)
				if workers == 1 {
					if !slices.Equal(s.D.Parent, want) {
						t.Fatalf("phase %d: one-worker LINK differs from the per-arc sweep", phase)
					}
				} else {
					checkLinkedToLeader(t, s, before, phase)
				}
				s.Phase++
				s.D.Shortcut(m)
				s.Arcs.Alter(m, s.D)
			}
		}
	})
}

// checkLinkedToLeader checks a LINK step whose concurrent writes
// resolved by schedule: each follower with a leader neighbour now
// points at one of those neighbours, and every other parent is as it
// was.
func checkLinkedToLeader(t *testing.T, s *State, before []int32, phase uint64) {
	t.Helper()
	leaders := make(map[int32][]int32) // follower -> its leader neighbours
	for i := range s.Arcs.U {
		v, w := s.Arcs.U[i], s.Arcs.V[i]
		if v != w && !leader(s.Coin, phase, v) && leader(s.Coin, phase, w) {
			leaders[v] = append(leaders[v], w)
		}
	}
	for x, p := range s.D.Parent {
		if nb, ok := leaders[int32(x)]; ok {
			if !slices.Contains(nb, p) {
				t.Fatalf("phase %d: follower %d linked to %d, not a leader neighbour", phase, x, p)
			}
		} else if p != before[x] {
			t.Fatalf("phase %d: vertex %d changed parent %d -> %d without a leader neighbour",
				phase, x, before[x], p)
		}
	}
}
