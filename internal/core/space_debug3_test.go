package core

import (
	"testing"

	"repro/graph"
	"repro/internal/pram"
)

func TestDebugGrowthSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("growth-sweep convergence loop (~3s) skipped in -short; CI's scheduled full run covers it")
	}
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 2048, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 4})
	g2 := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 128, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 4})
	for _, gamma := range []float64{1.1, 1.15, 1.2, 1.25} {
		p := DefaultParams(23)
		p.Growth = gamma
		res := Run(pram.New(), g, p)
		p2 := DefaultParams(23)
		p2.Growth = gamma
		res2 := Run(pram.New(), g2, p2)
		t.Logf("gamma=%.2f: beads2048 rounds=%d maxlvl=%d cum/m=%.2f failed=%v | beads128 rounds=%d cum/m=%.2f",
			gamma, res.Rounds, res.MaxLevel, float64(res.CumBlockWords)/float64(g.NumEdges()), res.Failed,
			res2.Rounds, float64(res2.CumBlockWords)/float64(g2.NumEdges()))
	}
}
