package pramcc

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/graph"
	"repro/internal/ccbase"
	"repro/internal/pram"
	"repro/internal/spanning"
)

// ErrSolverClosed is returned by Solve/SpanningForest on a closed
// Solver (and by Service methods on a closed Service).
var ErrSolverClosed = errors.New("pramcc: solver is closed")

// Solver is the long-lived form of the one-shot entry points: a handle
// that owns its execution engine — the worker pool and the pre-sized
// scratch and label buffers — so that repeated solves amortize every
// allocation and engine construction across calls. On the native and
// incremental backends a steady-state Solve on same-sized graphs
// allocates nothing at all (see BenchmarkSolverReuse).
//
// The configuration (backend, workers, seed, algorithm parameters) is
// fixed at NewSolver time. Solve honours its context at every round
// (simulated) or work chunk (native, incremental) boundary: a
// cancelled or expired context makes Solve return ctx.Err() promptly,
// with no partial result; an already-cancelled context fails fast
// before any work.
//
// Solve and SpanningForest serialize on an internal mutex, so racing
// calls cannot corrupt the engine — but the *Result returned by Solve
// aliases solver-owned buffers and is rewritten by the next Solve on
// the same Solver. A Solver is therefore single-consumer: one
// goroutine solves and reads the result before solving again; results
// retained across solves must be copied. For serving results to many
// goroutines while recomputing, use Service, which publishes immutable
// snapshots for exactly that purpose. Close releases the engine's
// worker pool; it is idempotent, and a previously returned (copied)
// Result remains valid after it.
type Solver struct {
	mu     sync.Mutex
	cfg    config
	eng    engine
	closed bool

	// Reusable per-solve state, all guarded by mu.
	out  solveOutput
	seen []bool // countLabels scratch
	res  Result // the returned Result, rewritten by every Solve
}

// NewSolver builds a Solver from the same options the free functions
// take. WithBackend selects the engine (default BackendSimulated);
// WithWorkers sizes its pool once, at construction. An unregistered
// backend is an error naming the registered ones.
func NewSolver(opts ...Option) (*Solver, error) {
	return newSolverFromConfig(apply(opts))
}

func newSolverFromConfig(c config) (*Solver, error) {
	info, ok := lookupBackend(c.backend)
	if !ok {
		return nil, errUnknownBackend(int(c.backend))
	}
	return &Solver{cfg: c, eng: info.newEngine(&c)}, nil
}

// Backend returns the execution backend this Solver was built with.
func (s *Solver) Backend() Backend { return s.cfg.backend }

// Solve computes the connected components of g on the Solver's
// backend. See the Solver doc for the buffer-ownership and context
// contract.
func (s *Solver) Solve(ctx context.Context, g *graph.Graph) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSolverClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Fail fast: an already-cancelled context does no work at all.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.eng.solve(ctx, g, &s.out); err != nil {
		return nil, err
	}
	// Wall is fixed before the O(n) label count below, so the counting
	// pass is never charged to the run (the E11/E12 discipline).
	s.out.stats.Wall = time.Since(start)
	s.res.Labels = s.out.labels
	s.res.NumComponents = countLabels(s.out.labels, &s.seen)
	s.res.Stats = s.out.stats
	return &s.res, nil
}

// SpanningForest computes a spanning forest of g with the Theorem 2
// algorithm, honouring ctx at every phase boundary. The spanning
// forest algorithm exists only on the PRAM simulator, so it runs there
// whatever the Solver's backend; the Solver contributes its seed,
// worker count, and phase-cap options. Unlike Solve, the returned
// ForestResult is freshly allocated and stays valid across calls.
func (s *Solver) SpanningForest(ctx context.Context, g *graph.Graph) (*ForestResult, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSolverClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return spanningForest(ctx, g, s.cfg)
}

// spanningForest is the shared implementation behind the free
// SpanningForest function and Solver.SpanningForest.
func spanningForest(ctx context.Context, g *graph.Graph, c config) (*ForestResult, error) {
	m := pram.New()
	p := spanning.DefaultParams(c.seed)
	if c.maxPhases > 0 {
		p.MaxPhases = c.maxPhases
	}
	if c.combining {
		p.Mode = ccbase.ModeCombining
	}
	p.Ctx = ctx
	start := time.Now()
	res := spanning.Run(m, g, p)
	wall := time.Since(start)
	if res.CtxErr != nil {
		return nil, res.CtxErr
	}
	// The columnar span is the canonical output; the boxed Edges pairs
	// are derived from it for compatibility.
	span := res.ForestSpan(g)
	out := &ForestResult{
		Result: *newResult(wall, res.Labels, Stats{
			Backend:       BackendSimulated,
			Workers:       simulatorWorkers,
			Rounds:        res.Phases,
			PRAMSteps:     res.Stats.Steps,
			Work:          res.Stats.Work,
			MaxProcessors: res.Stats.MaxProcs,
			PeakSpace:     res.Stats.MaxSpace,
			Prep:          res.Prep,
			Failed:        res.Failed,
		}),
		EdgeIndices: res.ForestEdges,
		Edges:       span.Pairs(),
		Span:        span,
	}
	if res.Failed {
		return out, errPhaseCap(res.Phases)
	}
	return out, nil
}

// Close releases the engine's resources (worker pools). Idempotent;
// subsequent Solve calls return ErrSolverClosed.
func (s *Solver) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.eng.close()
	}
}
