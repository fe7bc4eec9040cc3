package vanilla

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

// goldenGraphs are the inputs the one-worker model-cost hashes are
// recorded on: a long permuted path, a sparse and a dense random
// graph, and a multi-component graph with isolated vertices and
// self-loops.
var goldenGraphs = []struct {
	name string
	g    func(seed int64) *graph.Graph
}{
	{"path", func(seed int64) *graph.Graph { return graph.Permuted(graph.Path(3000), seed) }},
	{"gnm-sparse", func(seed int64) *graph.Graph { return graph.Gnm(3000, 6000, seed) }},
	{"gnm-dense", func(seed int64) *graph.Graph { return graph.Gnm(1000, 12000, seed) }},
	{"multi", func(seed int64) *graph.Graph {
		g := graph.WithIsolated(graph.DisjointUnion(
			graph.Permuted(graph.Cycle(500), seed), graph.Grid2D(20, 20), graph.Clique(12)), 30)
		g.AddEdge(3, 3)
		g.AddEdge(600, 600)
		return g
	}},
}

// TestGoldenModelCosts pins one-worker Vanilla and Vanilla-SF solves:
// at pram.New(1) every ARBITRARY write resolves the same way on every
// run, so the labels, forest edges, Stats and phase count hash to the
// recorded values. A host-side speedup must leave every hash unchanged.
func TestGoldenModelCosts(t *testing.T) {
	want := map[string]uint64{
		"vanilla/path/seed1":          0x63e70f782414c608,
		"vanilla-sf/path/seed1":       0x4656d4b49523482c,
		"vanilla/path/seed2":          0xcfbc21c0b0ddd08a,
		"vanilla-sf/path/seed2":       0xefd93ae3fa0121c0,
		"vanilla/path/seed3":          0x486c6c2403313ca,
		"vanilla-sf/path/seed3":       0xe398dff2e1428516,
		"vanilla/gnm-sparse/seed1":    0x49f7356602213b82,
		"vanilla-sf/gnm-sparse/seed1": 0xcc71dba0cbd90d2d,
		"vanilla/gnm-sparse/seed2":    0x6e5d58f40e73d253,
		"vanilla-sf/gnm-sparse/seed2": 0x26e21ad636a92c66,
		"vanilla/gnm-sparse/seed3":    0x9b05f7eb1510dc3f,
		"vanilla-sf/gnm-sparse/seed3": 0xf82a61e682457266,
		"vanilla/gnm-dense/seed1":     0x68a1cce008921d5,
		"vanilla-sf/gnm-dense/seed1":  0xedd64ddb2de36230,
		"vanilla/gnm-dense/seed2":     0x3b147041ef6c770f,
		"vanilla-sf/gnm-dense/seed2":  0xf563eb339cf540c9,
		"vanilla/gnm-dense/seed3":     0x545086c4a28c3b29,
		"vanilla-sf/gnm-dense/seed3":  0xc75540de1cbd6691,
		"vanilla/multi/seed1":         0x548c8b4103eaacd0,
		"vanilla-sf/multi/seed1":      0xb2f149b811a803f3,
		"vanilla/multi/seed2":         0x5a6df898b1435e30,
		"vanilla-sf/multi/seed2":      0x967191d5fdb9a47f,
		"vanilla/multi/seed3":         0x895c739ff4f32f38,
		"vanilla-sf/multi/seed3":      0xf41e612a704f39b3,
	}
	for _, tc := range goldenGraphs {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("vanilla/%s/seed%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				g := tc.g(int64(seed))
				res := Run(pram.New(1), g, seed, 0)
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("labels wrong: %v", err)
				}
				if got := goldenHash(res.Labels, nil, res.Phases, res.Stats); got != want[name] {
					t.Errorf("model-cost hash = %#x, want %#x (phases=%d stats=%+v)",
						got, want[name], res.Phases, res.Stats)
				}
			})
			name = fmt.Sprintf("vanilla-sf/%s/seed%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				g := tc.g(int64(seed))
				res := RunSF(pram.New(1), g, seed, 0)
				if err := check.Forest(g, res.ForestEdges); err != nil {
					t.Fatalf("forest wrong: %v", err)
				}
				if got := goldenHash(res.Labels, res.ForestEdges, res.Phases, res.Stats); got != want[name] {
					t.Errorf("model-cost hash = %#x, want %#x (phases=%d stats=%+v)",
						got, want[name], res.Phases, res.Stats)
				}
			})
		}
	}
}

// goldenHash folds a run's labels, forest edges, phase count and cost
// counters into one FNV-1a value.
func goldenHash(labels []int32, forest []int, phases int, st pram.Stats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(len(labels)))
	for _, l := range labels {
		put(int64(l))
	}
	put(int64(len(forest)))
	for _, e := range forest {
		put(int64(e))
	}
	put(int64(phases))
	for _, x := range []int64{st.Steps, st.Work, st.MaxProcs, st.Space, st.MaxSpace} {
		put(x)
	}
	return h.Sum64()
}
