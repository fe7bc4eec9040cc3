// Streaming: the scenario the incremental backend exists for. Edges
// arrive over time — here an RMAT graph replayed in batches, standing
// in for a growing social network — and between batches the
// application keeps answering connectivity queries from a labeling
// that is always fresh. Each batch costs the incremental union-find
// the work of the new edges plus one flatten pass over the vertices;
// the alternative, a full native recompute after every batch, rescans
// the entire accumulated edge set for several rounds every time.
// Experiment E12 (cmd/ccbench, EXPERIMENTS.md) measures the same
// comparison across generator families.
//
// Run with:
//
//	go run ./examples/streaming [-n 100000] [-deg 4] [-batches 12] [-workers 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	pramcc "repro"
	"repro/graph"
)

func main() {
	n := flag.Int("n", 100000, "vertices")
	deg := flag.Int("deg", 4, "edges per vertex (m = n·deg via RMAT)")
	batches := flag.Int("batches", 12, "number of arrival batches")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	g := graph.RMAT(*n, *n**deg, 7)
	fmt.Printf("workload: RMAT  n=%d  m=%d  arriving in %d batches\n\n", g.N, g.NumEdges(), *batches)

	sv, err := pramcc.NewService(g.N, pramcc.WithBackend(pramcc.BackendIncremental),
		pramcc.WithWorkers(*workers))
	if err != nil {
		log.Fatal(err)
	}
	defer sv.Close()

	fmt.Printf("%7s %10s %12s %12s %14s\n", "batch", "edges", "total edges", "components", "batch latency")
	var incrTotal time.Duration
	var totalEdges int
	// SpanBatches slices the graph's columnar arc storage in place, and
	// IngestSpan shards those columns straight onto the worker pool: the
	// whole replay is zero-copy (no [][2]int is ever materialized).
	spans := g.SpanBatches(*batches)
	for i, batch := range spans {
		res, err := sv.IngestSpan(context.Background(), batch)
		if err != nil {
			log.Fatal(err)
		}
		incrTotal += res.Stats.Wall
		totalEdges += batch.Len()
		fmt.Printf("%7d %10d %12d %12d %14v\n",
			i+1, batch.Len(), totalEdges, res.NumComponents, res.Stats.Wall.Round(10_000))
	}

	// The query side: answers come from the flattened snapshot in O(1).
	u, v := 0, g.N-1
	fmt.Printf("\nSameComponent(%d, %d) = %v  (answered from the live snapshot)\n",
		u, v, sv.SameComponent(u, v))

	// What staying fresh would have cost without the streaming engine:
	// one full native recompute per batch over the growing prefix.
	prefix := graph.New(g.N)
	var recompute time.Duration
	for _, batch := range spans {
		for i := 0; i < batch.Len(); i++ {
			u, v := batch.Edge(i)
			prefix.AddEdge(int(u), int(v))
		}
		t0 := time.Now()
		if _, err := pramcc.Components(prefix, pramcc.WithBackend(pramcc.BackendNative),
			pramcc.WithWorkers(*workers)); err != nil {
			log.Fatal(err)
		}
		recompute += time.Since(t0)
	}

	nat, err := pramcc.Components(g, pramcc.WithBackend(pramcc.BackendNative))
	if err != nil {
		log.Fatal(err)
	}
	agree := true
	for i, l := range sv.Snapshot().Labels {
		if l != nat.Labels[i] {
			agree = false
			break
		}
	}

	fmt.Printf("\nincremental, all %d batches:        %12v\n", len(spans), incrTotal.Round(10_000))
	fmt.Printf("native recompute after every batch: %12v  (%.1fx slower)\n",
		recompute.Round(10_000), float64(recompute)/float64(incrTotal))
	fmt.Printf("final labels equal one-shot native:  %v\n", agree)
}
