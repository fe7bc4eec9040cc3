package pramcc

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// TestSolverAllBackends: a long-lived Solver per registered backend,
// reused across differently-sized graphs, must keep producing the
// union-find partition — including after buffer reuse kicks in.
func TestSolverAllBackends(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Gnm(2000, 6000, 7),
		graph.Path(513),
		graph.Gnm(5000, 2000, 9), // bigger n: buffers must regrow
		graph.Gnm(300, 900, 11),  // smaller n: buffers must shrink logically
	}
	for _, bk := range Backends() {
		t.Run(bk.String(), func(t *testing.T) {
			s, err := NewSolver(WithBackend(bk), WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Backend() != bk {
				t.Fatalf("Backend() = %v, want %v", s.Backend(), bk)
			}
			for i, g := range graphs {
				res, err := s.Solve(context.Background(), g)
				if err != nil {
					t.Fatalf("graph %d: %v", i, err)
				}
				if len(res.Labels) != g.N {
					t.Fatalf("graph %d: %d labels for %d vertices", i, len(res.Labels), g.N)
				}
				if err := check.SamePartition(res.Labels, baseline.Components(g)); err != nil {
					t.Fatalf("graph %d: %v", i, err)
				}
				if res.Stats.Backend != bk {
					t.Fatalf("graph %d: Stats.Backend = %v", i, res.Stats.Backend)
				}
				if res.Stats.Wall <= 0 || res.Stats.Workers == 0 {
					t.Fatalf("graph %d: real quantities unpopulated: %+v", i, res.Stats)
				}
			}
		})
	}
}

// TestSolverResultReuse pins the documented buffer-ownership contract:
// the Result returned by Solve is rewritten by the next Solve on the
// same Solver (that reuse is where the zero steady-state allocations
// come from), so retained results must be copied.
func TestSolverResultReuse(t *testing.T) {
	s, err := NewSolver(WithBackend(BackendNative))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.Gnm(1000, 3000, 5)
	r1, err := s.Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("Solve allocated a fresh Result; the documented contract (and the zero-alloc property) is reuse")
	}
}

// TestSolverSolveZeroAllocNative is the acceptance bar of the Solver
// redesign: steady-state Solve on same-sized graphs, native backend,
// allocates nothing — no labels, no scratch, no Result, no closures.
func TestSolverSolveZeroAllocNative(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := NewSolver(WithBackend(BackendNative), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.Gnm(20000, 60000, 1)
	ctx := context.Background()
	if _, err := s.Solve(ctx, g); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := s.Solve(ctx, g)
		if err != nil || res.NumComponents == 0 {
			t.Fatal("solve failed in alloc loop")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSolverClose: Close is idempotent, and a closed Solver rejects
// work with ErrSolverClosed.
func TestSolverClose(t *testing.T) {
	s, err := NewSolver(WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Gnm(100, 300, 2)
	if _, err := s.Solve(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Solve(context.Background(), g); err != ErrSolverClosed {
		t.Fatalf("Solve on closed Solver: %v, want ErrSolverClosed", err)
	}
	if _, err := s.SpanningForest(context.Background(), g); err != ErrSolverClosed {
		t.Fatalf("SpanningForest on closed Solver: %v, want ErrSolverClosed", err)
	}
}

// TestSolverSpanningForest: the ctx-aware forest entry point matches
// the free function's guarantees.
func TestSolverSpanningForest(t *testing.T) {
	g := graph.Gnm(1000, 3000, 13)
	s, err := NewSolver(WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fr, err := s.SpanningForest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Edges) != g.N-fr.NumComponents {
		t.Fatalf("forest has %d edges, want n-components = %d", len(fr.Edges), g.N-fr.NumComponents)
	}
	if err := check.SamePartition(fr.Labels, baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
}

// TestNewSolverUnregisteredBackend: the registry-driven error names
// the backends that actually exist.
func TestNewSolverUnregisteredBackend(t *testing.T) {
	_, err := NewSolver(WithBackend(Backend(99)))
	if err == nil {
		t.Fatal("NewSolver accepted an unregistered backend")
	}
	for _, name := range BackendNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name registered backend %q", err, name)
		}
	}
	if _, err := Components(graph.Path(4), WithBackend(Backend(99))); err == nil {
		t.Fatal("Components accepted an unregistered backend")
	}
}

// TestComponentsConcurrent: every free-function call runs a one-shot
// Solver of its own, so concurrent callers share no engine state and
// each must get an independent, correct Result. Run under -race in CI.
func TestComponentsConcurrent(t *testing.T) {
	g := graph.Gnm(3000, 9000, 21)
	want := baseline.Components(g)
	for _, bk := range []Backend{BackendNative, BackendIncremental} {
		t.Run(bk.String(), func(t *testing.T) {
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						res, err := Components(g, WithBackend(bk))
						if err != nil {
							t.Error(err)
							return
						}
						if err := check.SamePartition(res.Labels, want); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestFreeFunctionsStillIndependent: every free-function call returns
// an independently owned Result that no later call can rewrite.
func TestFreeFunctionsStillIndependent(t *testing.T) {
	g := graph.Gnm(500, 1500, 3)
	for _, bk := range Backends() {
		r1, err := Components(g, WithBackend(bk))
		if err != nil {
			t.Fatal(err)
		}
		keep := append([]int32(nil), r1.Labels...)
		if _, err := Components(graph.Path(700), WithBackend(bk)); err != nil {
			t.Fatal(err)
		}
		for i := range keep {
			if r1.Labels[i] != keep[i] {
				t.Fatalf("%v: a later Components call mutated an earlier result", bk)
			}
		}
	}
}

// poolWorkers reads the pramcc_pool_workers gauge through WriteMetrics.
func poolWorkers(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "pramcc_pool_workers "); ok {
			return v
		}
	}
	t.Fatal("pramcc_pool_workers missing from WriteMetrics output")
	return ""
}

// TestFreeFunctionsLeaveNoPool: a free-function call builds its engine,
// solves and closes it, so no worker pool outlives the call. Not
// parallel: the gauge counts every pool in the process.
func TestFreeFunctionsLeaveNoPool(t *testing.T) {
	g := graph.Gnm(500, 1500, 3)
	for _, bk := range []Backend{BackendNative, BackendIncremental} {
		before := poolWorkers(t)
		if _, err := Components(g, WithBackend(bk), WithWorkers(3)); err != nil {
			t.Fatal(err)
		}
		if after := poolWorkers(t); after != before {
			t.Fatalf("%v: pramcc_pool_workers %s -> %s after one Components call", bk, before, after)
		}
	}
}
