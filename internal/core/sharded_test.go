package core

import (
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

// TestShardedRangeSteps runs whole solves on a two-worker machine with
// n above the 2048-processor sequential threshold, so MAXLINK, ALTER,
// SHORTCUT and the round's arc sweeps run their range bodies as
// concurrently claimed chunks; the partition must match the BFS oracle.
func TestShardedRangeSteps(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Permuted(graph.Path(1<<13), 3)},
		{"gnm-sparse", graph.Gnm(1<<13, 1<<14, 4)},
		{"gnm-dense", graph.Gnm(1<<12, 1<<16, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(pram.New(2), tc.g, DefaultParams(7))
			if err := check.Components(tc.g, res.Labels); err != nil {
				t.Fatalf("rounds=%d failed=%v: %v", res.Rounds, res.Failed, err)
			}
		})
	}
}
