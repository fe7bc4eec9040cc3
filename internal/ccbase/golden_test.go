package ccbase

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

// goldenGraphs are the inputs the model-cost hashes are recorded on:
// a long permuted path (PREPARE runs, high diameter), a sparse and a
// dense random graph, a multi-component graph with isolated vertices
// and self-loops, and a short path scattered among many isolated
// vertices (sparse support).
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
	{"sparse-support", func(seed int64) *graph.Graph {
		return graph.Permuted(graph.WithIsolated(graph.Path(500), 20000), seed)
	}},
}

// TestGoldenModelCosts pins a Theorem-1 solve in both execution
// modes: the machine runs every step in processor order, so every
// ARBITRARY write resolves the same way on every run and host, and
// the labels, Stats, phase counts and each phase's trace row hash to
// the recorded values. A host-side speedup must leave every hash
// unchanged.
func TestGoldenModelCosts(t *testing.T) {
	want := map[string]uint64{
		"mode0/path/seed1":           0xb60bfac44053e4ec,
		"mode0/path/seed2":           0xd63e124d629d0774,
		"mode0/path/seed3":           0x66c1877ae57ac0c4,
		"mode0/gnm-sparse/seed1":     0x5349b524061049a3,
		"mode0/gnm-sparse/seed2":     0xab393a310b7aa825,
		"mode0/gnm-sparse/seed3":     0x6813356435520a05,
		"mode0/gnm-dense/seed1":      0x6bbe635961d6062a,
		"mode0/gnm-dense/seed2":      0xd26846e1de2fa216,
		"mode0/gnm-dense/seed3":      0xee1320021a16345b,
		"mode0/multi/seed1":          0xab5bc2b97d9bfd33,
		"mode0/multi/seed2":          0xd844b475786e8b02,
		"mode0/multi/seed3":          0x97cf6d0683945efb,
		"mode0/sparse-support/seed1": 0xa4731dd30ed8f067,
		"mode0/sparse-support/seed2": 0x3e1f989847a7e5ee,
		"mode0/sparse-support/seed3": 0x50e6925eca7bb5d9,
		"mode1/path/seed1":           0xaae6e2fdbe9fc731,
		"mode1/path/seed2":           0xef057ab0f55b4467,
		"mode1/path/seed3":           0xfe376b82135921e4,
		"mode1/gnm-sparse/seed1":     0xe93fd6ec81665b14,
		"mode1/gnm-sparse/seed2":     0xd6b1c06f56d690b2,
		"mode1/gnm-sparse/seed3":     0xa3d3c66a292093ca,
		"mode1/gnm-dense/seed1":      0xd4b08bbffaf53d38,
		"mode1/gnm-dense/seed2":      0x1456eafe1042d46b,
		"mode1/gnm-dense/seed3":      0x1f57f597d2e9f754,
		"mode1/multi/seed1":          0x11bd6b0941f73687,
		"mode1/multi/seed2":          0xe0c4b02fe1075ba1,
		"mode1/multi/seed3":          0x179f928b4da21f1,
		"mode1/sparse-support/seed1": 0xfb554a437702e548,
		"mode1/sparse-support/seed2": 0xf683c7a4ad769a5a,
		"mode1/sparse-support/seed3": 0xf869af14ddcacefa,
	}
	for _, mode := range []Mode{ModeCombining, ModeArbitrary} {
		for _, tc := range goldenGraphs {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("mode%d/%s/seed%d", mode, tc.name, seed)
				t.Run(name, func(t *testing.T) {
					g := tc.g(int64(seed))
					p := DefaultParams(seed)
					p.Mode = mode
					res := Run(pram.New(), g, p)
					if err := check.Components(g, res.Labels); err != nil {
						t.Fatalf("labels wrong: %v", err)
					}
					if got := goldenHash(res); got != want[name] {
						t.Errorf("model-cost hash = %#x, want %#x (phases=%d stats=%+v)",
							got, want[name], res.Phases, res.Stats)
					}
				})
			}
		}
	}
}

// goldenHash folds every deterministic output of a run into one FNV-1a
// value: labels, cost counters, phase counts and each trace row.
func goldenHash(res Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(len(res.Labels)))
	for _, l := range res.Labels {
		put(int64(l))
	}
	st := res.Stats
	for _, x := range []int64{st.Steps, st.Work, st.MaxProcs, st.Space, st.MaxSpace} {
		put(x)
	}
	put(int64(res.Phases))
	put(int64(res.Prep))
	if res.Failed {
		put(1)
	} else {
		put(0)
	}
	put(int64(len(res.Trace)))
	for _, tr := range res.Trace {
		for _, x := range []int{tr.Ongoing, tr.Estimate, tr.ExpandRounds, tr.Live} {
			put(int64(x))
		}
		put(int64(tr.B * 1e6))
		put(tr.TableSpace)
	}
	return h.Sum64()
}
