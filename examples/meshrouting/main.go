// Meshrouting: a high-diameter workload. A 2-D grid with random
// obstacle holes models a routing mesh; its diameter grows with the
// grid side, which is exactly the regime where the paper's
// O(log d + log log n) bound separates from Θ(d) label propagation.
// We sweep the grid side and print rounds for both algorithms.
package main

import (
	"fmt"
	"log"
	"math/rand"

	pramcc "repro"
	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/pram"
)

// holeyGrid builds a side×side grid and removes each vertex's edges
// with probability hole (the vertex becomes isolated — an obstacle).
func holeyGrid(side int, hole float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	blocked := make([]bool, side*side)
	for i := range blocked {
		blocked[i] = rng.Float64() < hole
	}
	g := graph.New(side * side)
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if blocked[id(r, c)] {
				continue
			}
			if c+1 < side && !blocked[id(r, c+1)] {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < side && !blocked[id(r+1, c)] {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

func main() {
	fmt.Printf("%8s %10s %10s %14s %18s\n", "side", "diam(est)", "comps", "Thm3 rounds", "label-prop rounds")
	for _, side := range []int{16, 32, 64, 128, 256} {
		g := holeyGrid(side, 0.05, int64(side))
		d := g.DiameterEstimate()

		res, err := pramcc.ConnectedComponents(g, pramcc.WithSeed(uint64(side)))
		if err != nil {
			log.Fatal(err)
		}
		lp := baseline.LabelPropagation(pram.New(), g)

		fmt.Printf("%8d %10d %10d %14d %18d\n",
			side, d, res.NumComponents, res.Stats.Rounds, lp.Rounds)
	}
	fmt.Println("\nlabel propagation scales with the diameter; Theorem 3 with its logarithm.")
}
