package baseline

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestSmokeBaselines(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":    graph.Path(64),
		"gnm":     graph.Gnm(500, 2000, 7),
		"twocomp": graph.DisjointUnion(graph.Path(50), graph.Clique(20)),
		"star":    graph.Star(100),
		"grid":    graph.Grid2D(10, 10),
	}
	algos := map[string]func(*pram.Machine, *graph.Graph) ParallelResult{
		"sv":    ShiloachVishkin,
		"as":    AwerbuchShiloach,
		"lt":    LiuTarjanMinLink,
		"lp":    LabelPropagation,
		"matsq": MatrixSquaring,
	}
	for gname, g := range cases {
		for aname, algo := range algos {
			t.Run(fmt.Sprintf("%s/%s", aname, gname), func(t *testing.T) {
				res := algo(pram.New(), g)
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("rounds=%d: %v", res.Rounds, err)
				}
			})
		}
	}
}
