package pramcc

// Context-semantics regression tests (the ISSUE-4 satellite): an
// already-cancelled context fails fast before any work on every
// backend; a context cancelled mid-run makes Solve return ctx.Err()
// within one round/batch boundary; and Service queries stay consistent
// across a cancelled solve.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// cancelAfterChecks is a context that reports itself cancelled after
// its Err method has been consulted a fixed number of times. Engines
// poll ctx.Err() at round/batch-chunk boundaries — that polling IS the
// cancellation contract — so this makes "cancel mid-run" deterministic
// instead of a timing race.
type cancelAfterChecks struct {
	context.Context
	remaining atomic.Int64
}

func newCancelAfter(n int64) *cancelAfterChecks {
	c := &cancelAfterChecks{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *cancelAfterChecks) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// mediumGraph is big enough that every backend does several
// rounds/chunks of real work (the incremental backend checks ctx per
// 4096-edge chunk, so m must comfortably exceed that).
func mediumGraph() *graph.Graph {
	return graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 64, Size: 24, IntraDeg: 8, Bridges: 2, Seed: 31})
}

// TestSolveFailsFastOnCancelledContext: a context that is already
// cancelled does no work at all and returns ctx.Err() — on every
// registered backend, and regardless of graph size.
func TestSolveFailsFastOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := mediumGraph()
	for _, bk := range Backends() {
		t.Run(bk.String(), func(t *testing.T) {
			s, err := NewSolver(WithBackend(bk))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			start := time.Now()
			if _, err := s.Solve(ctx, g); !errors.Is(err, context.Canceled) {
				t.Fatalf("Solve = %v, want context.Canceled", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("fail-fast took %v", d)
			}
			// The engine must be reusable after the aborted call.
			res, err := s.Solve(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(res.Labels, baseline.Components(g)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSolveCancellationMidRun: when the context cancels partway
// through, Solve stops at the next round/batch boundary — within one
// more Err poll — returns exactly ctx.Err(), and the solver remains
// usable and correct afterwards.
func TestSolveCancellationMidRun(t *testing.T) {
	g := mediumGraph()
	for _, bk := range Backends() {
		t.Run(bk.String(), func(t *testing.T) {
			s, err := NewSolver(WithBackend(bk), WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Budget 2 checks: the Solver's fail-fast check passes,
			// the engine enters its loop, and the first boundary poll
			// after that cancels — deterministically mid-run.
			ctx := newCancelAfter(2)
			_, err = s.Solve(ctx, g)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run Solve = %v, want context.Canceled", err)
			}
			// No partial result leaked, and the engine recovered.
			res, err := s.Solve(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(res.Labels, baseline.Components(g)); err != nil {
				t.Fatalf("post-cancellation solve: %v", err)
			}
		})
	}
}

// TestSolveDeadlineExceeded: a real deadline context reports
// DeadlineExceeded, not a hang, even when it expires mid-run.
func TestSolveDeadlineExceeded(t *testing.T) {
	g := graph.Gnm(60000, 240000, 3)
	s, err := NewSolver(WithBackend(BackendSimulated))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = s.Solve(ctx, g)
	// The simulated run takes far longer than 1ms, so the deadline
	// must fire; either error form of an expired context is fine.
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Solve = %v, want context.DeadlineExceeded", err)
	}
}

// TestSpanningForestCancellation: the ctx-aware forest entry point
// shares the contract.
func TestSpanningForestCancellation(t *testing.T) {
	g := mediumGraph()
	s, err := NewSolver(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SpanningForest(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("SpanningForest = %v, want context.Canceled", err)
	}
	if _, err := s.SpanningForest(newCancelAfter(2), g); !errors.Is(err, context.Canceled) {
		t.Fatal("mid-run forest cancellation not honoured")
	}
	if _, err := s.SpanningForest(context.Background(), g); err != nil {
		t.Fatal(err)
	}
}

// TestServiceConsistentAcrossCancelledSolve: a cancelled Update or
// Ingest publishes nothing — queries keep answering from the previous
// snapshot, bit-for-bit.
func TestServiceConsistentAcrossCancelledSolve(t *testing.T) {
	g := mediumGraph()
	for _, bk := range Backends() {
		t.Run(bk.String(), func(t *testing.T) {
			sv, err := NewService(0, WithBackend(bk), WithSeed(17))
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Close()
			if _, err := sv.Update(context.Background(), g); err != nil {
				t.Fatal(err)
			}
			before := sv.Snapshot()
			keep := append([]int32(nil), before.Labels...)

			if _, err := sv.Update(newCancelAfter(2), graph.Gnm(5000, 20000, 9)); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Update = %v, want context.Canceled", err)
			}
			after := sv.Snapshot()
			if after != before {
				t.Fatal("cancelled Update replaced the snapshot")
			}
			for i := range keep {
				if after.Labels[i] != keep[i] {
					t.Fatal("cancelled Update mutated the snapshot labels")
				}
			}
		})
	}

	// Streaming flavour: a cancelled Ingest leaves the snapshot at the
	// last completed batch, and re-submitting the batch completes it.
	sv, err := NewService(mediumGraph().N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	batches := g.SpanBatches(4)
	if _, err := sv.Ingest(context.Background(), batches[0].Pairs()); err != nil {
		t.Fatal(err)
	}
	before := sv.Snapshot()
	if _, err := sv.Ingest(newCancelAfter(1), batches[1].Pairs()); !errors.Is(err, context.Canceled) {
		t.Fatal("cancelled Ingest did not report context.Canceled")
	}
	if sv.Snapshot() != before {
		t.Fatal("cancelled Ingest advanced the snapshot")
	}
	for _, b := range batches[1:] {
		if _, err := sv.Ingest(context.Background(), b.Pairs()); err != nil {
			t.Fatal(err)
		}
	}
	if err := check.SamePartition(sv.Labels(), baseline.Components(g)); err != nil {
		t.Fatalf("labeling after cancelled-then-resubmitted batch: %v", err)
	}
}
