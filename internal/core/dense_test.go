package core

import (
	"testing"
	"time"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestDenseGnmConverges(t *testing.T) {
	g := graph.Gnm(20000, 20000*32, 5)
	start := time.Now()
	res := Run(pram.New(), g, DefaultParams(3))
	el := time.Since(start)
	t.Logf("rounds=%d maxLevel=%d failed=%v cum/m=%.2f elapsed=%v",
		res.Rounds, res.MaxLevel, res.Failed, float64(res.CumBlockWords)/float64(g.NumEdges()), el)
	for i, tr := range res.Trace {
		if i < 40 {
			t.Logf("round %2d: roots=%6d maxlvl=%2d boost=%5d dorm=%6d parch=%d added=%d words=%d",
				i+1, tr.Roots, tr.MaxLevel, tr.LevelUpsBoost, tr.Dormant, tr.ParentChanges, tr.NewAdded, tr.BlockWords)
		}
	}
	if res.Failed {
		t.Errorf("dense Gnm hit the round cap")
	}
	if err := check.Components(g, res.Labels); err != nil {
		t.Fatal(err)
	}
}
