package spanning

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

// TestGoldenModelCosts pins a one-worker Theorem-2 solve: at
// pram.New(1) every ARBITRARY write resolves the same way on every
// run, so the labels, forest edges, Stats, phase counts and each
// phase's trace row hash to the recorded values. A host-side speedup
// must leave every hash unchanged.
func TestGoldenModelCosts(t *testing.T) {
	graphs := []struct {
		name string
		g    func(seed int64) *graph.Graph
	}{
		{"path", func(seed int64) *graph.Graph { return graph.Permuted(graph.Path(3000), seed) }},
		{"gnm-sparse", func(seed int64) *graph.Graph { return graph.Gnm(3000, 6000, seed) }},
		{"gnm-dense", func(seed int64) *graph.Graph { return graph.Gnm(1000, 12000, seed) }},
	}
	want := map[string]uint64{
		"path/seed1":       0xcfd4732ff30ea77a,
		"path/seed2":       0x6eec520451c522d1,
		"path/seed3":       0xec474a90414c07cb,
		"gnm-sparse/seed1": 0x78dc646fe881d44,
		"gnm-sparse/seed2": 0x928efde03e2f2c54,
		"gnm-sparse/seed3": 0x8cddfc76824a9753,
		"gnm-dense/seed1":  0xcb91a7d925448e33,
		"gnm-dense/seed2":  0x7b2a3ea8c559f3f4,
		"gnm-dense/seed3":  0x2d1eb2a354b59b78,
	}
	for _, tc := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				g := tc.g(int64(seed))
				res := Run(pram.New(1), g, DefaultParams(seed))
				if err := check.Forest(g, res.ForestEdges); err != nil {
					t.Fatalf("forest wrong: %v", err)
				}
				if got := goldenHash(res); got != want[name] {
					t.Errorf("model-cost hash = %#x, want %#x (phases=%d stats=%+v)",
						got, want[name], res.Phases, res.Stats)
				}
			})
		}
	}
}

// goldenHash folds every deterministic output of a run into one FNV-1a
// value: labels, forest edges, cost counters, phase counts and each
// trace row.
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
	put(int64(len(res.ForestEdges)))
	for _, e := range res.ForestEdges {
		put(int64(e))
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
		for _, x := range []int{tr.Ongoing, tr.ExpandRounds, tr.TreeShortcut, tr.Linked} {
			put(int64(x))
		}
		put(int64(tr.B * 1e6))
	}
	return h.Sum64()
}
