package pramcc

import (
	"fmt"
	"slices"
	"testing"

	"repro/graph"
	"repro/internal/check"
)

func TestConnectedComponentsPublicAPI(t *testing.T) {
	g := graph.DisjointUnion(graph.Path(50), graph.Clique(10))
	res, err := ConnectedComponents(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 2 {
		t.Fatalf("components = %d, want 2", res.NumComponents)
	}
	if !res.SameComponent(0, 49) || res.SameComponent(0, 55) {
		t.Fatal("SameComponent answers wrong")
	}
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
	if res.Stats.PRAMSteps == 0 || res.Stats.MaxProcessors == 0 {
		t.Fatal("stats not populated")
	}
}

func TestAllEntryPointsAgree(t *testing.T) {
	g := graph.Permuted(graph.DisjointUnion(
		graph.Gnm(2000, 8000, 1),
		graph.Grid2D(15, 15),
		graph.Star(60),
	), 7)
	want := g.ComponentsBFS()

	type namedRun struct {
		name string
		run  func() ([]int32, error)
	}
	runs := []namedRun{
		{"fast", func() ([]int32, error) {
			r, err := ConnectedComponents(g, WithSeed(3))
			return r.Labels, err
		}},
		{"loglog", func() ([]int32, error) {
			r, err := ConnectedComponentsLogLog(g, WithSeed(3))
			return r.Labels, err
		}},
		{"loglog-combining", func() ([]int32, error) {
			r, err := ConnectedComponentsLogLog(g, WithSeed(3), WithCombining())
			return r.Labels, err
		}},
		{"vanilla", func() ([]int32, error) {
			r, err := VanillaComponents(g, WithSeed(3))
			return r.Labels, err
		}},
		{"forest", func() ([]int32, error) {
			r, err := SpanningForest(g, WithSeed(3))
			return r.Labels, err
		}},
	}
	for _, nr := range runs {
		t.Run(nr.name, func(t *testing.T) {
			labels, err := nr.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(labels, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSpanningForestPublicAPI(t *testing.T) {
	g := graph.Gnm(1000, 4000, 5)
	res, err := SpanningForest(g, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Forest(g, res.EdgeIndices); err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != len(res.EdgeIndices) {
		t.Fatal("edge lists inconsistent")
	}
	if len(res.Edges) != g.N-res.NumComponents {
		t.Fatalf("forest size %d, want %d", len(res.Edges), g.N-res.NumComponents)
	}
	// Edges must really be input edges.
	in := map[[2]int]bool{}
	for _, e := range g.SortedDedupEdges() {
		in[e] = true
	}
	for _, e := range res.Edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		if !in[[2]int{a, b}] {
			t.Fatalf("forest edge %v not in the input graph", e)
		}
	}
}

func TestNilAndInvalidGraphs(t *testing.T) {
	if _, err := ConnectedComponents(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad := graph.Path(3)
	bad.U[1] = 2 // corrupt mirror pair
	if _, err := ConnectedComponents(bad); err == nil {
		t.Fatal("invalid graph accepted")
	}
	if _, err := SpanningForest(nil); err == nil {
		t.Fatal("nil graph accepted by SpanningForest")
	}
	if _, err := ConnectedComponentsLogLog(nil); err == nil {
		t.Fatal("nil graph accepted by LogLog")
	}
	if _, err := VanillaComponents(nil); err == nil {
		t.Fatal("nil graph accepted by Vanilla")
	}
}

func TestOptionsApply(t *testing.T) {
	g := graph.Gnm(500, 2000, 1)
	res, err := ConnectedComponents(g,
		WithSeed(9), WithWorkers(2), WithMaxRounds(64),
		WithBudgetGrowth(1.4), WithMinBudget(8), WithMaxLinkIters(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestWithoutBoostStillCorrect(t *testing.T) {
	g := graph.Gnm(500, 2000, 2)
	res, err := ConnectedComponents(g, WithSeed(4), WithoutBoost())
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsGiveCorrectResults(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 12, Size: 10, IntraDeg: 8, Bridges: 2, Seed: 6})
	for seed := uint64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := ConnectedComponents(g, WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := check.Components(g, res.Labels); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStatsExposeSpaceBound(t *testing.T) {
	g := graph.Gnm(5000, 40000, 3)
	res, err := ConnectedComponents(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Stats.CumBlockWords) / float64(g.NumEdges())
	if ratio > 16 {
		t.Fatalf("cumulative block words = %.1f×m, Lemma 3.10 expects O(m)", ratio)
	}
}

// TestSeededSimulationIgnoresWorkers: the simulator runs every step on
// one host thread, so a seeded simulated run is bit-identical whatever
// WithWorkers asks for — labels, forest edges and every Stats field but
// Wall, at each entry point.
func TestSeededSimulationIgnoresWorkers(t *testing.T) {
	g := graph.Gnm(20000, 40000, 1)
	type outcome struct {
		labels []int32
		forest []int
		stats  Stats
	}
	entries := map[string]func(opts ...Option) (outcome, error){
		"components": func(opts ...Option) (outcome, error) {
			res, err := Components(g, append(opts, WithBackend(BackendSimulated))...)
			if err != nil {
				return outcome{}, err
			}
			return outcome{labels: res.Labels, stats: res.Stats}, nil
		},
		"loglog": func(opts ...Option) (outcome, error) {
			res, err := ConnectedComponentsLogLog(g, opts...)
			if err != nil {
				return outcome{}, err
			}
			return outcome{labels: res.Labels, stats: res.Stats}, nil
		},
		"loglog-combining": func(opts ...Option) (outcome, error) {
			res, err := ConnectedComponentsLogLog(g, append(opts, WithCombining())...)
			if err != nil {
				return outcome{}, err
			}
			return outcome{labels: res.Labels, stats: res.Stats}, nil
		},
		"forest": func(opts ...Option) (outcome, error) {
			res, err := SpanningForest(g, opts...)
			if err != nil {
				return outcome{}, err
			}
			return outcome{labels: res.Labels, forest: res.EdgeIndices, stats: res.Stats}, nil
		},
		"vanilla": func(opts ...Option) (outcome, error) {
			res, err := VanillaComponents(g, opts...)
			if err != nil {
				return outcome{}, err
			}
			return outcome{labels: res.Labels, stats: res.Stats}, nil
		},
	}
	for name, solve := range entries {
		t.Run(name, func(t *testing.T) {
			var want outcome
			for i, w := range []int{1, 2, 4, 0} {
				got, err := solve(WithSeed(3), WithWorkers(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got.stats.Wall = 0
				if i == 0 {
					if err := check.Components(g, got.labels); err != nil {
						t.Fatal(err)
					}
					want = got
					continue
				}
				if got.stats != want.stats {
					t.Errorf("workers=%d: Stats %+v, workers=1 gave %+v", w, got.stats, want.stats)
				}
				if !slices.Equal(got.labels, want.labels) || !slices.Equal(got.forest, want.forest) {
					t.Errorf("workers=%d: labels or forest edges differ from workers=1", w)
				}
			}
		})
	}
}
