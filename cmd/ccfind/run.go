package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	pramcc "repro"
	"repro/graph"
)

// run parses args and executes ccfind against in/out; factored out of
// main for testing.
func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("ccfind", flag.ContinueOnError)
	algo := fs.String("algo", "fast", "simulated algorithm: fast (Thm 3), loglog (Thm 1), or vanilla")
	// The backend list in the usage string is enumerated from the
	// pramcc registry, not hard-coded: a newly registered backend is
	// selectable here with no CLI change.
	var backend pramcc.Backend
	fs.TextVar(&backend, "backend", pramcc.BackendSimulated,
		"execution backend for the one-shot run: "+strings.Join(pramcc.BackendNames(), ", ")+
			" (the non-simulated engines are seedless and not -algo selectable)")
	forest := fs.Bool("forest", false, "also compute a spanning forest (Thm 2)")
	batches := fs.Int("batches", 0, "replay the edges in K batches through the streaming incremental backend, reporting per-batch latency (0 = one-shot run)")
	workers := fs.Int("workers", 0, "worker goroutines for the native and incremental engines, one-shot and -batches alike (0 = GOMAXPROCS); the simulator runs on one thread and ignores it")
	grain := fs.Int("grain", 0, "scheduler claim grain for the native and incremental engines (0 = adaptive sizing)")
	seed := fs.Uint64("seed", 1, "random seed")
	verbose := fs.Bool("v", false, "print per-vertex labels")
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := in
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	// ReadAuto accepts both graph formats: the text edge list and the
	// binary format written by graphgen -format bin (see graph.ReadAuto).
	g, err := graph.ReadAuto(r)
	if err != nil {
		return err
	}

	if *batches > 0 {
		if *forest {
			return fmt.Errorf("-forest is not supported with -batches (the streaming backend maintains components, not a forest)")
		}
		// The streaming backend is deterministic and not algorithm-
		// selectable: reject explicitly-set flags it would silently
		// ignore rather than run a different engine than asked for.
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "algo", "seed":
				conflict = fmt.Errorf("-%s is not supported with -batches (the streaming incremental backend is seedless and not algorithm-selectable)", f.Name)
			case "backend":
				if backend != pramcc.BackendIncremental {
					conflict = fmt.Errorf("-batches always runs the incremental backend; -backend %v conflicts", backend)
				}
			}
		})
		if conflict != nil {
			return conflict
		}
		return runBatches(g, *batches, *workers, *grain, *verbose, out)
	}

	if backend != pramcc.BackendSimulated {
		// Engine path: the non-simulated backends are seedless and run
		// exactly one algorithm, so reject explicitly-set flags they
		// would silently ignore.
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "algo", "seed":
				conflict = fmt.Errorf("-%s is not supported with -backend %v (that engine is seedless and not algorithm-selectable)", f.Name, backend)
			case "forest":
				conflict = fmt.Errorf("-forest is not supported with -backend %v (the spanning forest algorithm is simulator-only)", backend)
			}
		})
		if conflict != nil {
			return conflict
		}
		res, err := pramcc.Components(g, pramcc.WithBackend(backend), pramcc.WithWorkers(*workers), pramcc.WithGrain(*grain))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "n=%d m=%d components=%d rounds=%d workers=%d grain=%s backend=%v wall=%v\n",
			g.N, g.NumEdges(), res.NumComponents, res.Stats.Rounds, res.Stats.Workers, grainLabel(res.Stats.Grain), res.Stats.Backend, res.Stats.Wall)
		if *verbose {
			for v, l := range res.Labels {
				fmt.Fprintf(out, "%d %d\n", v, l)
			}
		}
		return nil
	}

	// The simulator has no scheduler grain; reject an explicitly-set
	// -grain rather than silently ignore it.
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "grain" {
			conflict = fmt.Errorf("-grain is not supported with the simulated backend (the simulator runs each step on one thread and has no scheduler grain)")
		}
	})
	if conflict != nil {
		return conflict
	}

	common := []pramcc.Option{pramcc.WithSeed(*seed)}
	var res *pramcc.Result
	switch *algo {
	case "fast":
		res, err = pramcc.ConnectedComponents(g, common...)
	case "loglog":
		res, err = pramcc.ConnectedComponentsLogLog(g, common...)
	case "vanilla":
		res, err = pramcc.VanillaComponents(g, common...)
	default:
		return fmt.Errorf("unknown -algo %q (want fast, loglog, or vanilla)", *algo)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "n=%d m=%d components=%d rounds=%d pram-steps=%d workers=%d\n",
		g.N, g.NumEdges(), res.NumComponents, res.Stats.Rounds, res.Stats.PRAMSteps, res.Stats.Workers)
	if *verbose {
		for v, l := range res.Labels {
			fmt.Fprintf(out, "%d %d\n", v, l)
		}
	}

	if *forest {
		fr, err := pramcc.SpanningForest(g, common...)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "forest edges: %d\n", len(fr.Edges))
		for _, e := range fr.Edges {
			fmt.Fprintf(out, "%d %d\n", e[0], e[1])
		}
	}
	return nil
}

// grainLabel renders a claim-grain value for the run summary: the
// fixed grain, or "adaptive" for the 0 default.
func grainLabel(n int) string {
	if n == 0 {
		return "adaptive"
	}
	return fmt.Sprintf("%d", n)
}

// runBatches replays g's edges in k batches through a Service on the
// streaming incremental backend, printing one latency line per batch
// and a final summary. The replay is columnar end-to-end: each batch
// is a zero-copy SpanBatches slice of the loaded graph's arc columns,
// ingested with IngestSpan, so nothing between the loader and the
// union-find materializes a [][2]int edge list.
func runBatches(g *graph.Graph, k, workers, grain int, verbose bool, out io.Writer) error {
	sv, err := pramcc.NewService(g.N, pramcc.WithBackend(pramcc.BackendIncremental),
		pramcc.WithWorkers(workers), pramcc.WithGrain(grain))
	if err != nil {
		return err
	}
	defer sv.Close()
	// SpanBatches caps k at the edge count; report the real total.
	batches := g.SpanBatches(k)
	var total int64
	for i, batch := range batches {
		res, err := sv.IngestSpan(context.Background(), batch)
		if err != nil {
			return err
		}
		total += int64(batch.Len())
		fmt.Fprintf(out, "batch %d/%d: edges=%d total-edges=%d components=%d wall=%v\n",
			i+1, len(batches), batch.Len(), total, res.NumComponents, res.Stats.Wall)
	}
	fmt.Fprintf(out, "n=%d m=%d components=%d batches=%d grain=%s backend=incremental\n",
		g.N, g.NumEdges(), sv.NumComponents(), len(batches), grainLabel(grain))
	if verbose {
		for v, l := range sv.Snapshot().Labels {
			fmt.Fprintf(out, "%d %d\n", v, l)
		}
	}
	return nil
}
