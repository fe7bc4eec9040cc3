package spanning

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/expand"
	"repro/internal/hashing"
	"repro/internal/labels"
	"repro/internal/pram"
)

// treeLinkFixture runs EXPAND with generous tables (so nothing goes
// dormant except by the block lottery) and then TREE-LINK with an
// explicit leader set, returning α, β, chosen and the inputs.
func treeLinkFixture(t *testing.T, g *graph.Graph, leaders map[int]bool, tableSize int) (*expand.Outcome, treeLinkOutput) {
	t.Helper()
	m := pram.New()
	arcs := labels.NewArcStore(g.Span())
	ongoingB := make([]bool, g.N)
	ongoing := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		ongoingB[v] = true
		ongoing[v] = 1
	}
	exp := expand.Run(m, arcs, ongoingB, expand.Params{
		BlockSlack: 16, TableSize: tableSize, MaxRounds: 32, Snapshot: true, Seed: 5,
	})
	leader := make([]int32, g.N)
	for v := range leaders {
		leader[v] = 1
	}
	alpha := make([]int32, g.N)
	beta := make([]int32, g.N)
	leaderNbr := make([]int32, g.N)
	chosen := make([]int32, g.N)
	out := treeLink(treeLinkInput{
		M: m, Arcs: arcs, Exp: exp,
		Ongoing: ongoing, Leader: leader,
		TableSize: tableSize, HashQ: hashing.Family{Seed: 77}.At(7), NOngoing: g.N,
	}, alpha, beta, leaderNbr, chosen)
	return exp, out
}

// distToLeaders computes min distance from each vertex to a leader.
func distToLeaders(g *graph.Graph, leaders map[int]bool) []int32 {
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for v := range leaders {
		dist[v] = 0
		queue = append(queue, int32(v))
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// TestLemmaC5BetaIsLeaderDistance: with no dormancy and no collisions,
// β (where set) equals the exact distance to the nearest leader.
func TestLemmaC5BetaIsLeaderDistance(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		leaders map[int]bool
	}{
		{"path-end", graph.Path(17), map[int]bool{0: true}},
		{"path-mid", graph.Path(17), map[int]bool{8: true}},
		{"path-two", graph.Path(17), map[int]bool{0: true, 16: true}},
		{"grid", graph.Grid2D(5, 5), map[int]bool{0: true}},
		{"tree", graph.CompleteBinaryTree(31), map[int]bool{0: true}},
		{"cycle", graph.Cycle(12), map[int]bool{3: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp, out := treeLinkFixture(t, tc.g, tc.leaders, 1024)
			for v := 0; v < tc.g.N; v++ {
				if exp.FullyDorm[v] {
					continue // lost the block lottery: β may be unset
				}
			}
			want := distToLeaders(tc.g, tc.leaders)
			for v := 0; v < tc.g.N; v++ {
				if out.Beta[v] < 0 {
					continue // β unset is allowed (dormancy etc.)
				}
				if out.Beta[v] != want[v] {
					t.Fatalf("vertex %d: β = %d, true leader distance %d", v, out.Beta[v], want[v])
				}
			}
			// With giant tables every live vertex must get β.
			for v := 0; v < tc.g.N; v++ {
				if exp.Live[v] && out.Beta[v] < 0 && want[v] >= 0 {
					t.Fatalf("live vertex %d missing β (true distance %d)", v, want[v])
				}
			}
		})
	}
}

// TestLemmaC6WitnessArcs: every vertex with β = x ≥ 1 has a chosen arc
// to a neighbour with β = x−1.
func TestLemmaC6WitnessArcs(t *testing.T) {
	g := graph.Grid2D(6, 7)
	leaders := map[int]bool{0: true, 41: true}
	_, out := treeLinkFixture(t, g, leaders, 2048)
	arcs := labels.NewArcStore(g.Span())
	for v := 0; v < g.N; v++ {
		if out.Beta[v] < 1 {
			continue
		}
		e := out.Chosen[v]
		if e < 0 {
			t.Fatalf("vertex %d with β=%d has no witness arc", v, out.Beta[v])
		}
		if arcs.U[e] != int32(v) {
			t.Fatalf("vertex %d chose arc starting at %d", v, arcs.U[e])
		}
		w := arcs.V[e]
		if out.Beta[w] != out.Beta[v]-1 {
			t.Fatalf("witness arc (%d,%d): β %d → %d, want decrease by 1",
				v, w, out.Beta[v], out.Beta[w])
		}
	}
}

// TestLemmaC4AlphaExcludesLeaders: B(u, α) contains no leader, and
// B(u, α+1) does (when β is set): α = dist−1 exactly here.
func TestLemmaC4AlphaExcludesLeaders(t *testing.T) {
	g := graph.Path(20)
	leaders := map[int]bool{10: true}
	_, out := treeLinkFixture(t, g, leaders, 1024)
	want := distToLeaders(g, leaders)
	for v := 0; v < g.N; v++ {
		if out.Beta[v] >= 1 {
			if out.Alpha[v] != want[v]-1 {
				t.Fatalf("vertex %d: α = %d, want dist−1 = %d", v, out.Alpha[v], want[v]-1)
			}
		}
	}
}

// TestTreeLinkLinksDecreaseBeta: following chosen arcs from any vertex
// reaches a leader in exactly β steps (the height bound of Lemma C.8).
func TestTreeLinkLinksDecreaseBeta(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 6, Size: 6, IntraDeg: 5, Bridges: 1, Seed: 2})
	leaders := map[int]bool{0: true}
	_, out := treeLinkFixture(t, g, leaders, 4096)
	arcs := labels.NewArcStore(g.Span())
	for v := 0; v < g.N; v++ {
		if out.Beta[v] < 1 {
			continue
		}
		steps := 0
		x := int32(v)
		for out.Beta[x] > 0 {
			e := out.Chosen[x]
			if e < 0 {
				t.Fatalf("chain from %d stuck at %d (β=%d)", v, x, out.Beta[x])
			}
			x = arcs.V[e]
			steps++
			if steps > g.N {
				t.Fatalf("chain from %d does not terminate", v)
			}
		}
		if int32(steps) != out.Beta[v] {
			t.Fatalf("chain from %d took %d steps, β = %d", v, steps, out.Beta[v])
		}
	}
}

// TestTreeLinkNoLeaders: with no leaders at all, no β is set and no
// arcs are chosen.
func TestTreeLinkNoLeaders(t *testing.T) {
	g := graph.Path(10)
	_, out := treeLinkFixture(t, g, map[int]bool{}, 512)
	for v := 0; v < g.N; v++ {
		if out.Beta[v] >= 0 {
			t.Fatalf("vertex %d has β=%d with no leaders", v, out.Beta[v])
		}
		if out.Chosen[v] >= 0 {
			t.Fatalf("vertex %d chose an arc with no leaders", v)
		}
	}
}

// TestTreeLinkTinyTables: with collision-prone tables the lemmas only
// guarantee β ≤ true distance never below; unset β is fine.
func TestTreeLinkTinyTables(t *testing.T) {
	g := graph.Star(64)
	for seed := 0; seed < 3; seed++ {
		leaders := map[int]bool{seed + 1: true}
		_, out := treeLinkFixture(t, g, leaders, 4)
		want := distToLeaders(g, leaders)
		for v := 0; v < g.N; v++ {
			if out.Beta[v] >= 0 && out.Beta[v] != want[v] {
				t.Fatalf(fmt.Sprintf("vertex %d: set β=%d must equal distance %d", v, out.Beta[v], want[v]))
			}
		}
	}
}
