package pramcc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/graph"
	"repro/internal/ccbase"
	"repro/internal/pram"
	"repro/internal/vanilla"
)

// Stats reports the costs of a run. The fields split into two groups:
// real quantities, measured on the host and meaningful for every
// backend, and model-only quantities, counted in simulated-PRAM units
// (steps, processors, common-memory words — never wall clock) and
// populated only by BackendSimulated. BackendNative does no per-step
// accounting, so on a native run every model-only field is zero.
type Stats struct {
	// ---- real quantities (all backends) ----

	Backend Backend       // engine that produced the result
	Wall    time.Duration // wall clock of the run itself — result assembly (label counting) is excluded
	Workers int           // host goroutine count that executed the run
	Rounds  int           // main-loop rounds: EXPAND-MAXLINK rounds or phases (simulated); link+shortcut rounds, 1 or 0 with no edges (native); batches since the last reset, 1 for a one-shot solve (incremental)
	Grain   int           // configured scheduler claim grain (WithGrain); 0 means adaptive sizing

	// ---- model-only quantities (BackendSimulated; zero on native) ----

	PRAMSteps     int64 // simulated constant-time PRAM steps
	Work          int64 // Σ steps × processors
	MaxProcessors int64 // peak processors in one step
	PeakSpace     int64 // peak allocated common-memory words
	MaxLevel      int   // highest level reached (ConnectedComponents only)
	CumBlockWords int64 // Σ block allocations (Lemma 3.10's O(m) quantity)
	Prep          int   // Vanilla phases run by PREPARE/COMPACT
	PostPhases    int   // Theorem-1 phases of the postprocessing stage
	Failed        bool  // a bad-probability event occurred (see method docs)
}

// Result is a component labeling with run statistics.
type Result struct {
	// Labels assigns every vertex a component representative: two
	// vertices are in the same component iff their labels are equal.
	Labels []int32
	// NumComponents is the number of distinct labels.
	NumComponents int
	Stats         Stats
}

// SameComponent reports whether v and w are in the same component —
// the constant-time test the labeling framework exists for (§2.1).
func (r *Result) SameComponent(v, w int) bool { return r.Labels[v] == r.Labels[w] }

// ForestResult extends Result with a spanning forest.
type ForestResult struct {
	Result
	// EdgeIndices are the forest edges as arc-pair indices into g
	// (index i is arcs 2i and 2i+1 of g.U/g.V); exactly
	// n − NumComponents of them.
	EdgeIndices []int
	// Edges are the forest edges themselves, as boxed pairs (kept for
	// compatibility; Span is the columnar form).
	Edges [][2]int
	// Span is the forest as a columnar arc-pair span (mirror arcs, in
	// EdgeIndices order) — directly ingestible by Service.IngestSpan
	// or any other EdgeSpan consumer.
	Span graph.EdgeSpan
}

func validate(g *graph.Graph) error {
	if g == nil {
		return errors.New("pramcc: nil graph")
	}
	return g.Validate()
}

// countLabels returns the number of distinct labels, counting in
// *seen, which it grows to len(labels) and leaves there for the next
// call (a Solver keeps it, so a steady-state count allocates nothing).
// Every backend labels a component by one of its vertices, so labels
// live in [0, len(labels)) and one indexed pass over a flat seen-array
// counts them in O(n) — the map that used to live here cost more than
// a whole native run on large graphs. The map fallback only exists so
// a future backend with out-of-range labels degrades instead of
// panicking.
func countLabels(labels []int32, seen *[]bool) int {
	n := len(labels)
	if cap(*seen) >= n {
		*seen = (*seen)[:n]
		clear(*seen)
	} else {
		*seen = make([]bool, n)
	}
	marks := *seen
	count := 0
	for _, l := range labels {
		if uint(l) >= uint(n) {
			return countLabelsGeneric(labels)
		}
		if !marks[l] {
			marks[l] = true
			count++
		}
	}
	return count
}

// labelsInto copies src into dst, growing dst only when its capacity
// is short, and returns the filled slice — the grow-or-reuse core of
// the zero-alloc Service.LabelsInto query. src is an immutable
// published labeling, so a plain
// copy after the caller's one atomic snapshot read is
// snapshot-consistent.
//
//pramcc:zeroalloc
func labelsInto(dst, src []int32) []int32 {
	if cap(dst) < len(src) {
		//pramcc:allow zeroalloc -- grow-or-reuse contract: allocates only when the caller's buffer is short
		dst = make([]int32, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func countLabelsGeneric(labels []int32) int {
	seen := make(map[int32]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// newResult assembles a Result from a labeling and the caller-measured
// wall time. Stats.Wall must be fixed by the caller before the O(n)
// component count runs: a struct literal that evaluates
// countLabels(...) before time.Since(start) silently charges the
// counting pass to the run itself, which is exactly the cross-backend
// wall-clock pollution E11/E12 existed to rule out.
func newResult(wall time.Duration, labels []int32, stats Stats) *Result {
	stats.Wall = wall
	return &Result{
		Labels:        labels,
		NumComponents: countLabels(labels, new([]bool)),
		Stats:         stats,
	}
}

func apply(opts []Option) config {
	c := defaultConfig()
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Components computes the connected components of g on the backend
// selected with WithBackend: the model-cost PRAM simulation (default;
// equivalent to ConnectedComponents, the paper's Theorem-3 algorithm)
// or the shared-memory engine, which runs the same one-shot solve on
// BackendNative and BackendIncremental. All backends compute the same
// partition; the non-simulated ones leave every model-only Stats field
// zero. This is the recommended entry point when the goal is the
// answer rather than a specific theorem's cost profile.
//
// Components is one Solve on a Solver built for this call and closed
// before it returns, so each call pays for its own engine and worker
// pool and the Result owns its labels. Callers who solve repeatedly,
// or want cancellation and deadlines, should hold their own Solver;
// callers serving concurrent queries during recomputes should use
// Service.
func Components(g *graph.Graph, opts ...Option) (*Result, error) {
	return solveOnce(g, apply(opts))
}

// ConnectedComponents computes the connected components of g with the
// paper's primary algorithm (Theorem 3): O(log d + log log_{m/n} n)
// simulated time with O(m) processors, with good probability. The
// returned labels are always correct: if the round cap is exhausted
// (Stats.Failed), the Theorem-1 postprocessing still completes the
// computation. Like Components, it runs a one-shot Solver, here always
// on the simulated backend.
func ConnectedComponents(g *graph.Graph, opts ...Option) (*Result, error) {
	c := apply(opts)
	c.backend = BackendSimulated
	return solveOnce(g, c)
}

// solveOnce runs one Solve on a Solver of its own and closes it. No
// other Solve can rewrite that Solver's buffers, so the labels are
// returned without a copy; only the Result header is copied, so the
// closed engine is not kept reachable through it.
func solveOnce(g *graph.Graph, c config) (*Result, error) {
	s, err := newSolverFromConfig(c)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Solve(context.Background(), g)
	if err != nil {
		return nil, err
	}
	out := *res
	return &out, nil
}

// ConnectedComponentsLogLog computes connected components with the
// Theorem 1 algorithm: O(log d · log log_{m/n} n) simulated time. If
// the phase cap is exhausted before convergence the labels may be
// incomplete and an error is returned alongside the partial result.
func ConnectedComponentsLogLog(g *graph.Graph, opts ...Option) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	c := apply(opts)
	m := pram.New()
	p := ccbase.DefaultParams(c.seed)
	if c.maxPhases > 0 {
		p.MaxPhases = c.maxPhases
	}
	if c.combining {
		p.Mode = ccbase.ModeCombining
	}
	start := time.Now()
	res := ccbase.Run(m, g, p)
	wall := time.Since(start)
	out := newResult(wall, res.Labels, Stats{
		Backend:       BackendSimulated,
		Workers:       simulatorWorkers,
		Rounds:        res.Phases,
		PRAMSteps:     res.Stats.Steps,
		Work:          res.Stats.Work,
		MaxProcessors: res.Stats.MaxProcs,
		PeakSpace:     res.Stats.MaxSpace,
		Prep:          res.Prep,
		Failed:        res.Failed,
	})
	if res.Failed {
		return out, errPhaseCap(res.Phases)
	}
	return out, nil
}

// SpanningForest computes a spanning forest of g with the Theorem 2
// algorithm: O(log d · log log_{m/n} n) simulated time. Forest edges
// are edges of the input graph; there are exactly n − NumComponents
// of them. On phase-cap exhaustion an error is returned alongside the
// partial result. The context-aware form is Solver.SpanningForest.
func SpanningForest(g *graph.Graph, opts ...Option) (*ForestResult, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	return spanningForest(context.Background(), g, apply(opts))
}

// errPhaseCap is the phase-cap-exhaustion error shared by the
// Theorem-1 and Theorem-2 entry points.
func errPhaseCap(phases int) error {
	return fmt.Errorf("pramcc: phase cap exhausted after %d phases (bad-probability event; rerun with another seed or WithMaxPhases)", phases)
}

// VanillaComponents computes connected components with Reif's O(log n)
// algorithm (§B.1) — the classic baseline the paper improves on for
// small-diameter graphs.
func VanillaComponents(g *graph.Graph, opts ...Option) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	c := apply(opts)
	m := pram.New()
	start := time.Now()
	res := vanilla.Run(m, g, c.seed, c.maxPhases)
	wall := time.Since(start)
	return newResult(wall, res.Labels, Stats{
		Backend:       BackendSimulated,
		Workers:       simulatorWorkers,
		Rounds:        res.Phases,
		PRAMSteps:     res.Stats.Steps,
		Work:          res.Stats.Work,
		MaxProcessors: res.Stats.MaxProcs,
		PeakSpace:     res.Stats.MaxSpace,
	}), nil
}
