package spanning

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestSmokeSpanning(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path64":  graph.Path(64),
		"gnm":     graph.Gnm(2000, 8000, 7),
		"beads":   graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 8, Size: 16, IntraDeg: 15, Seed: 3}),
		"twocomp": graph.DisjointUnion(graph.Path(50), graph.Clique(20)),
		"star":    graph.Star(100),
	}
	for name, g := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				m := pram.New()
				res := Run(m, g, DefaultParams(seed))
				if res.Failed {
					t.Fatalf("failed flag set, phases=%d", res.Phases)
				}
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("labels: %v", err)
				}
				if err := check.Forest(g, res.ForestEdges); err != nil {
					t.Fatalf("forest: %v", err)
				}
			})
		}
	}
}
