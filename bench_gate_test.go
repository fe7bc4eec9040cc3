package pramcc_test

// The multi-config CI bench gate (scripts/bench_gate.sh + cmd/benchgate)
// runs exactly these benchmarks: {workers=1, workers=NumCPU} ×
// {small, full-scale} on the two real engines, against the checked-in
// baselines under internal/bench/testdata/. One engine run per
// iteration, so the script's -benchtime=1x -count N yields N clean
// samples per configuration for the rank-sum test.
//
// The worker axis is named w1/wmax rather than the numeric CPU count
// so baseline files stay comparable across hosts (benchgate also
// strips the host-dependent -GOMAXPROCS name suffix when comparing).
// wmax is NumCPU floored at 2: even on a single-core host the matrix
// keeps a genuinely parallel configuration — oversubscribed, but it
// exercises the scheduler's multi-range claim/steal path — so the
// checked-in baseline always carries wmax rows and the parallel axis
// is actually gated (bench_gate.sh runs benchgate -strict, which fails
// on matrix configurations missing from the baseline). The full scale
// is gated behind -short so `go test ./...` stays fast.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	pramcc "repro"
	"repro/graph"
)

// gateScales: small solves in milliseconds, full is the EXPERIMENTS.md
// full-scale workload (Gnm(10⁶, 10⁷), the graph of E13's and E14's
// full-scale rows).
var gateScales = []struct {
	name string
	n, m int
}{
	{"small", 50_000, 200_000},
	{"full", 1_000_000, 10_000_000},
}

// gateWorkerAxis returns the {1, max(NumCPU, 2)} worker counts with
// their stable axis labels. The floor keeps wmax a distinct parallel
// configuration on every host, so no baseline can be recorded without
// wmax coverage.
func gateWorkerAxis() []struct {
	label string
	n     int
} {
	wmax := runtime.NumCPU()
	if wmax < 2 {
		wmax = 2
	}
	return []struct {
		label string
		n     int
	}{{"w1", 1}, {"wmax", wmax}}
}

func BenchmarkGate(b *testing.B) {
	ctx := context.Background()
	for _, sc := range gateScales {
		if sc.name == "full" && testing.Short() {
			continue
		}
		// The scale is a sub-benchmark of its own so the graph is only
		// generated when the -bench pattern actually selects the scale:
		// the gate script's small phase must not pay the seconds (and
		// ~160MB) of building the full-scale graph it never runs.
		b.Run(sc.name, func(b *testing.B) {
			g := graph.Gnm(sc.n, sc.m, 1)
			for _, w := range gateWorkerAxis() {
				b.Run(fmt.Sprintf("native/%s", w.label), func(b *testing.B) {
					s, err := pramcc.NewSolver(pramcc.WithBackend(pramcc.BackendNative), pramcc.WithWorkers(w.n))
					if err != nil {
						b.Fatal(err)
					}
					defer s.Close()
					if _, err := s.Solve(ctx, g); err != nil { // warm the buffers
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := s.Solve(ctx, g)
						if err != nil {
							b.Fatal(err)
						}
						if res.NumComponents == 0 {
							b.Fatal("no components")
						}
					}
				})
				b.Run(fmt.Sprintf("incremental-replay/%s", w.label), func(b *testing.B) {
					spans := g.SpanBatches(20)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sv, err := pramcc.NewService(g.N, pramcc.WithBackend(pramcc.BackendIncremental), pramcc.WithWorkers(w.n))
						if err != nil {
							b.Fatal(err)
						}
						for _, span := range spans {
							if _, err := sv.IngestSpan(ctx, span); err != nil {
								b.Fatal(err)
							}
						}
						if sv.NumComponents() == 0 {
							b.Fatal("no components")
						}
						sv.Close()
					}
				})
			}
		})
	}
}
