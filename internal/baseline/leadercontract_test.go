package baseline

import (
	"fmt"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestLeaderContractionCorrect(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":  graph.Path(300),
		"gnm":   graph.Gnm(2000, 8000, 1),
		"multi": graph.DisjointUnion(graph.Clique(20), graph.Star(40), graph.Path(60)),
		"rmat":  graph.RMAT(512, 2048, 2),
		"dense": graph.Gnm(500, 16000, 3),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			res := LeaderContraction(pram.New(), g)
			if err := check.Components(g, res.Labels); err != nil {
				t.Fatalf("rounds=%d: %v", res.Rounds, err)
			}
		})
	}
}

func TestLeaderContractionFasterOnDense(t *testing.T) {
	// On dense graphs the degree-aware sampling contracts by a factor
	// ≈ deg/log n per round — far fewer rounds than on a path.
	densRounds, pathRounds := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		dense := graph.Gnm(2000, 64000, seed)
		densRounds += LeaderContraction(pram.New(), dense).Rounds
		pathRounds += LeaderContraction(pram.New(), graph.Path(2000)).Rounds
	}
	if densRounds >= pathRounds {
		t.Fatalf("dense %d rounds vs path %d rounds: degree-aware sampling not helping", densRounds, pathRounds)
	}
}

func TestLeaderContractionHeavyTail(t *testing.T) {
	// Hubs in heavy-tailed graphs sample leaders at low probability but
	// attract many links; correctness must hold regardless.
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.ChungLu(1000, 5000, 2.2, seed)
		res := LeaderContraction(pram.New(), g)
		if err := check.Components(g, res.Labels); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAllBaselinesOnExtraFamilies(t *testing.T) {
	gs := map[string]*graph.Graph{
		"hypercube": graph.Hypercube(7),
		"barbell":   graph.Barbell(12, 20),
		"torus":     graph.Torus2D(12, 12),
		"lollipop":  graph.LollipopPath(15, 40),
	}
	algos := map[string]func(*pram.Machine, *graph.Graph) ParallelResult{
		"sv": ShiloachVishkin, "as": AwerbuchShiloach, "lt": LiuTarjanMinLink,
		"lp": LabelPropagation, "lc": LeaderContraction,
	}
	for gn, g := range gs {
		for an, algo := range algos {
			t.Run(fmt.Sprintf("%s/%s", an, gn), func(t *testing.T) {
				res := algo(pram.New(), g)
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
