package core

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestSmokeSmallGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path64", graph.Path(64)},
		{"cycle100", graph.Cycle(100)},
		{"star200", graph.Star(200)},
		{"grid8x8", graph.Grid2D(8, 8)},
		{"gnm1000", graph.Gnm(1000, 3000, 7)},
		{"two-comps", graph.DisjointUnion(graph.Path(50), graph.Clique(20))},
		{"isolated", graph.WithIsolated(graph.Path(10), 5)},
		{"beads", graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 10, Size: 12, IntraDeg: 11, Seed: 3})},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				m := pram.New()
				res := Run(m, tc.g, DefaultParams(seed))
				if err := check.Components(tc.g, res.Labels); err != nil {
					t.Fatalf("labels wrong (rounds=%d failed=%v): %v", res.Rounds, res.Failed, err)
				}
			})
		}
	}
}
