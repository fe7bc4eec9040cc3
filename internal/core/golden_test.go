package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

// TestGoldenModelCosts pins the simulator's model costs. The machine
// runs every step in processor order, so every ARBITRARY write
// resolves the same way on every run and host, and a seeded solve is
// fully determined: its labels, Stats (steps, work, max processors,
// space), round counts and every Trace row hash to the recorded
// values. A host-side speedup of the simulator must leave all of them
// unchanged; a change that moves one of these hashes changes the
// algorithm or its charging, not just its speed.
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
		"path/seed1":       0xa7a76a8b6403c363,
		"path/seed2":       0x1cd204fb6aee45ea,
		"path/seed3":       0xf55831c27158c87a,
		"gnm-sparse/seed1": 0xdd1207f3dc40f8dd,
		"gnm-sparse/seed2": 0x36d32171058b820a,
		"gnm-sparse/seed3": 0x5f2377d7260bcdd1,
		"gnm-dense/seed1":  0x3fb174606781e667,
		"gnm-dense/seed2":  0xfd5231fa263e2834,
		"gnm-dense/seed3":  0x2c2a6e3f8f0198d3,
	}
	for _, tc := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				g := tc.g(int64(seed))
				res := Run(pram.New(), g, DefaultParams(seed))
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("labels wrong: %v", err)
				}
				if got := goldenHash(res); got != want[name] {
					t.Errorf("model-cost hash = %#x, want %#x (rounds=%d stats=%+v)",
						got, want[name], res.Rounds, res.Stats)
				}
			})
		}
	}
}

// goldenHash folds every deterministic output of a run into one FNV-1a
// value: the labels, the machine's cost counters, the phase and round
// counts, and each round's trace with its maps in key order.
func goldenHash(res Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	putMap := func(m map[int32]int) {
		keys := make([]int32, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		put(int64(len(keys)))
		for _, k := range keys {
			put(int64(k))
			put(int64(m[k]))
		}
	}
	put(int64(len(res.Labels)))
	for _, l := range res.Labels {
		put(int64(l))
	}
	st := res.Stats
	for _, x := range []int64{st.Steps, st.Work, st.MaxProcs, st.Space, st.MaxSpace} {
		put(x)
	}
	for _, x := range []int{res.Rounds, res.Prep, res.PostPhases, res.AddedEdges, res.CompactRounds} {
		put(int64(x))
	}
	put(int64(res.MaxLevel))
	put(res.CumBlockWords)
	put(res.PeakBlockWords)
	if res.Failed {
		put(1)
	} else {
		put(0)
	}
	put(int64(len(res.Trace)))
	for _, tr := range res.Trace {
		for _, x := range []int{tr.Roots, tr.LevelUpsBoost, tr.LevelUpsDorm, tr.Dormant, tr.NewAdded, tr.ParentChanges} {
			put(int64(x))
		}
		put(int64(tr.MaxLevel))
		put(tr.BlockWords)
		putMap(tr.LevelHist)
		putMap(tr.LevelUpsByLevel)
	}
	return h.Sum64()
}
