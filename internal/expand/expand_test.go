package expand

import (
	"testing"

	"repro/graph"
	"repro/internal/labels"
	"repro/internal/pram"
)

func runExpand(t *testing.T, g *graph.Graph, p Params) *Outcome {
	t.Helper()
	arcs := labels.NewArcStore(g.Span())
	ongoing := make([]bool, g.N)
	for v := range ongoing {
		ongoing[v] = true
	}
	return Run(pram.New(), arcs, ongoing, p)
}

func bigParams(seed uint64) Params {
	return Params{BlockSlack: 8, TableSize: 512, MaxRounds: 32, Seed: seed}
}

// ballSizes computes |B(u, r)| via BFS for verification of Lemma B.7.
func ball(g *graph.Graph, u, r int) map[int32]bool {
	dist, _ := g.BFS(u)
	out := map[int32]bool{}
	for v, dv := range dist {
		if dv >= 0 && int(dv) <= r {
			out[int32(v)] = true
		}
	}
	return out
}

func TestExpandLiveTablesHoldBalls(t *testing.T) {
	// With huge tables and generous blocks, everything stays live and
	// each final table holds the whole component (Lemma B.7 at i = T).
	g := graph.Path(20)
	out := runExpand(t, g, bigParams(3))
	for v := 0; v < g.N; v++ {
		if !out.Live[v] {
			continue // block-lottery losses are possible but rare
		}
		comp := ball(g, v, g.N)
		got := out.H[v].Entries(nil)
		gotSet := map[int32]bool{}
		for _, w := range got {
			gotSet[w] = true
		}
		for w := range comp {
			if !gotSet[w] {
				t.Fatalf("live vertex %d missing component member %d", v, w)
			}
		}
		for w := range gotSet {
			if !comp[w] {
				t.Fatalf("live vertex %d has foreign vertex %d", v, w)
			}
		}
	}
}

func TestExpandRoundsLogDiameter(t *testing.T) {
	// Distance doubling: the loop should finish in ≈log2(d)+O(1)
	// rounds when nothing collides.
	for _, n := range []int{8, 32, 128} {
		g := graph.Path(n)
		out := runExpand(t, g, bigParams(7))
		allLive := true
		for v := 0; v < g.N; v++ {
			allLive = allLive && out.Live[v]
		}
		if !allLive {
			t.Skipf("n=%d: a vertex lost the block lottery; rerun", n)
		}
		maxRounds := log2(n) + 3
		if out.Rounds > maxRounds {
			t.Fatalf("n=%d: expand took %d rounds, want ≤ %d", n, out.Rounds, maxRounds)
		}
	}
}

func log2(n int) int {
	l := 0
	for x := 1; x < n; x <<= 1 {
		l++
	}
	return l
}

func TestExpandTinyTablesGoDormant(t *testing.T) {
	// A star with tiny tables must produce collisions at the hub, and
	// dormancy must propagate to vertices that saw the hub.
	g := graph.Star(64)
	out := runExpand(t, g, Params{BlockSlack: 8, TableSize: 4, MaxRounds: 16, Seed: 1})
	if !out.Dormant[0] {
		t.Fatal("hub of a 64-star cannot fit its neighbours in a 4-cell table")
	}
}

func TestExpandFullyDormant(t *testing.T) {
	// With BlockSlack ≪ 1 most vertices share blocks and become fully
	// dormant (no table).
	g := graph.Cycle(100)
	arcs := labels.NewArcStore(g.Span())
	ongoing := make([]bool, g.N)
	for v := range ongoing {
		ongoing[v] = true
	}
	out := Run(pram.New(), arcs, ongoing, Params{BlockSlack: 0.02, TableSize: 8, MaxRounds: 8, Seed: 2})
	fully := 0
	for v := 0; v < g.N; v++ {
		if out.FullyDorm[v] {
			fully++
			if out.H[v] != nil {
				t.Fatal("fully dormant vertex must not own a table")
			}
			if out.DormRound[v] != 0 {
				t.Fatal("fully dormant vertices are dormant from round 0")
			}
		}
	}
	if fully < 50 {
		t.Fatalf("only %d fully dormant vertices with 2 blocks", fully)
	}
}

func TestExpandRespectsOngoingMask(t *testing.T) {
	g := graph.Path(10)
	arcs := labels.NewArcStore(g.Span())
	ongoing := make([]bool, g.N) // nobody participates
	out := Run(pram.New(), arcs, ongoing, bigParams(4))
	for v := 0; v < g.N; v++ {
		if out.H[v] != nil || out.Live[v] {
			t.Fatal("non-ongoing vertex got state")
		}
	}
}

func TestExpandSnapshotsMonotone(t *testing.T) {
	// H_j(u) ⊆ H_{j+1}(u) under first-writer-wins insertion.
	g := graph.Path(32)
	arcs := labels.NewArcStore(g.Span())
	ongoing := make([]bool, g.N)
	for v := range ongoing {
		ongoing[v] = true
	}
	p := bigParams(5)
	p.Snapshot = true
	out := Run(pram.New(), arcs, ongoing, p)
	if len(out.Snapshots) != out.Rounds+1 {
		t.Fatalf("snapshots = %d, rounds = %d", len(out.Snapshots), out.Rounds)
	}
	for j := 0; j+1 < len(out.Snapshots); j++ {
		for v := 0; v < g.N; v++ {
			prev, next := out.Snapshots[j][v], out.Snapshots[j+1][v]
			if prev == nil {
				continue
			}
			for _, w := range prev.Entries(nil) {
				if !next.Contains(w) {
					t.Fatalf("round %d: vertex %d lost entry %d", j+1, v, w)
				}
			}
		}
	}
}

func TestExpandBallInvariant(t *testing.T) {
	// Lemma B.7: while live at round j, H_j(u) = B(u, 2^j).
	g := graph.Path(17)
	arcs := labels.NewArcStore(g.Span())
	ongoing := make([]bool, g.N)
	for v := range ongoing {
		ongoing[v] = true
	}
	p := bigParams(11)
	p.Snapshot = true
	out := Run(pram.New(), arcs, ongoing, p)
	for j := 0; j < len(out.Snapshots); j++ {
		for v := 0; v < g.N; v++ {
			if out.DormRound[v] >= 0 && int(out.DormRound[v]) <= j {
				continue // dormant by round j: only ⊆ holds
			}
			tbl := out.Snapshots[j][v]
			if tbl == nil {
				continue
			}
			want := ball(g, v, 1<<uint(j))
			got := map[int32]bool{}
			for _, w := range tbl.Entries(nil) {
				got[w] = true
			}
			for w := range want {
				if !got[w] {
					t.Fatalf("round %d vertex %d: B(u,2^j) member %d missing", j, v, w)
				}
			}
			for w := range got {
				if !want[w] {
					t.Fatalf("round %d vertex %d: foreign entry %d", j, v, w)
				}
			}
		}
	}
}

func TestExpandChargesCosts(t *testing.T) {
	g := graph.Path(16)
	arcs := labels.NewArcStore(g.Span())
	ongoing := make([]bool, g.N)
	for v := range ongoing {
		ongoing[v] = true
	}
	m := pram.New()
	Run(m, arcs, ongoing, bigParams(6))
	s := m.Stats()
	if s.Steps == 0 || s.Work == 0 || s.MaxSpace == 0 {
		t.Fatalf("costs not charged: %+v", s)
	}
}
