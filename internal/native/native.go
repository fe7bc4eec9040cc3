// Package native is the shared-memory execution backend: connected
// components computed directly on goroutines with atomic
// compare-and-swap on the label array, aimed at wall-clock speed
// rather than model-cost accounting.
//
// A solve is one round of the concurrent disjoint-set kernel in
// internal/uf — link every edge's roots, then shortcut — with the
// label array as the parent forest. The round's link sweep calls
// uf.Link on every edge, which connects the whole forest in one pass
// regardless of diameter. On graphs with m ≥ 2.5n the round goes
// sample → shortcut → finish (the Afforest/ConnectIt recipe): it links
// every s-th edge, s = ⌊m/(5n/4)⌋, so about 1.25n edges build most of
// the forest, shortcuts it flat, then sweeps every edge, skipping those
// whose endpoints already carry one label (two reads, no CAS — the
// bulk of a sample's giant component) and linking the rest. The
// round's closing shortcut points every vertex at its root.
//
// That round is the whole solve, with no verification round after it,
// and its labels are exact on every interleaving. By the invariants in
// the uf package doc, a tree's root is its minimum id and trees merge
// but never split. A link of edge (u, v) returns once u and v share a
// tree, and a finish-sweep skip reads u and v with one parent, so when
// the link sweeps end both endpoints of every edge share a tree: the
// trees are the components. No root moves during the closing
// shortcut, so it points every vertex at its component's minimum id.
//
// Work is sharded over the locality-aware grain-claim scheduler in
// internal/pool: each worker sweeps a sticky contiguous home range of
// the edge (and vertex) space first and steals from other ranges only
// after exhausting it, so the same label cache lines keep landing in
// the same core across the sweeps of a solve. Every link sweep reads
// edge i as the mirror pair (g.U[2i], g.U[2i+1]): the graph's own U
// column already is the interleaved [u v] record layout, so no sweep
// touches V and the engine keeps no copy of the arcs.
//
// The Engine type is the long-lived form: it owns the worker pool, and
// Run allocates nothing (the caller provides the label buffer) — the
// shape pramcc.Solver builds on. Components remains the one-shot
// convenience wrapper.
package native

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/uf"
)

// Engine-level metrics: completed runs and link+shortcut rounds,
// process-wide. Counted once per run (not per sweep), so the hot loop
// pays nothing for them.
var (
	mRuns = obs.Default.Counter("pramcc_native_runs_total",
		"completed native-engine Run calls")
	mRounds = obs.Default.Counter("pramcc_native_rounds_total",
		"link+shortcut rounds executed by the native engine")
)

// Options configures an engine run.
type Options struct {
	// Workers is the goroutine count; 0 selects GOMAXPROCS.
	Workers int
	// Grain is the number of edges or vertices a worker claims per
	// fetch of a range cursor; 0 derives pool.AdaptiveGrain from the
	// sweep size and worker count.
	Grain int
}

// Result is a component labeling with engine statistics. Unlike the
// simulated backends there are no model costs: only real quantities.
type Result struct {
	// Labels assigns every vertex a component representative (the
	// minimum vertex id of its component).
	Labels []int32
	// Rounds is the number of link+shortcut rounds run: 1 on a graph
	// with an edge, 0 otherwise.
	Rounds int
	// Workers is the resolved worker count that executed the run.
	Workers int
}

// phase selects the chunk body of the current sweep.
const (
	phaseRootLink   int32 = iota // link the roots of every stride-th edge
	phaseFinishLink              // link the roots of edges whose labels differ
	phaseShortcut
)

// sampleStride returns the stride s of the round's sample, ⌊m/(5n/4)⌋,
// so the sample holds about 1.25·n edges. The sample pays off only
// when it leaves most edges to the skip test, so callers sample only
// at s ≥ 2, that is m ≥ 2.5·n (forcing s = 2 was no faster at m/n = 2
// and slower at m/n = 1); the constant is from the stride sweep in
// EXPERIMENTS.md appendix A3.
//
//pramcc:zeroalloc
func sampleStride(n, m int) int {
	return int(4 * int64(m) / (5 * int64(n)))
}

// Engine is a reusable shared-memory solver. It owns a worker pool
// spawned once at construction; Run may be called any number of times
// (from one goroutine at a time) and allocates nothing itself — the
// caller provides the label buffer, and the sweeps read the graph's
// own arc column. Close releases the pool.
type Engine struct {
	pool  *pool.Pool
	grain int

	// Per-run state, written by Run between pool barriers only.
	g      *graph.Graph
	labels []int32
	phase  int32
	stride int // phaseRootLink's edge stride: 1, or the sample stride

	// chunk is the sweep body bound once at construction so Run does
	// not create a closure (and therefore does not allocate) per call.
	chunk func(worker, lo, hi int) bool
}

// NewEngine spawns an engine with its worker pool; workers ≤ 0 selects
// GOMAXPROCS.
func NewEngine(workers int) *Engine {
	return NewEngineOpt(Options{Workers: workers})
}

// NewEngineOpt spawns an engine with the full option set.
func NewEngineOpt(opt Options) *Engine {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{pool: pool.New(workers), grain: opt.Grain}
	e.chunk = e.chunkBody
	return e
}

// Workers returns the engine's resolved worker count.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Grain returns the configured claim grain (0 = adaptive).
func (e *Engine) Grain() int { return e.grain }

// Close releases the worker pool. Idempotent; the engine must be idle.
func (e *Engine) Close() { e.pool.Close() }

// Run computes the connected components of g into labels, which must
// have length g.N; on return labels[v] is the minimum vertex id of
// v's component. It returns the number of link+shortcut rounds run:
// 1 on any graph with an edge, 0 on a graph without edges.
//
// ctx is checked before the round and after it: when it is cancelled
// or past its deadline, Run returns ctx.Err() with the rounds it ran.
// The labels buffer then holds a partial labeling that the caller must
// discard.
//
// The returned labeling is exact on every interleaving: correctness
// depends only on the invariants of the uf kernel, not on scheduling.
//
//pramcc:zeroalloc
func (e *Engine) Run(ctx context.Context, g *graph.Graph, labels []int32) (int, error) {
	if len(labels) != g.N {
		panic("native: label buffer length does not match g.N")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range labels {
		labels[i] = int32(i)
	}
	numEdges := g.NumEdges()
	if g.N == 0 || numEdges == 0 {
		return 0, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return cancelled(0, err)
	}
	e.g, e.labels = g, labels
	defer func() { e.g, e.labels = nil, nil }()

	// Event emission is decided once per run: the envelope (and its
	// measures map) is built only when an operator attached a sink, so
	// the default run stays allocation-free.
	emit := obs.Enabled()
	var start time.Time
	if emit {
		start = time.Now()
	}
	e.stride = sampleStride(g.N, numEdges)
	if e.stride >= 2 {
		// A dense graph: sample, shortcut, finish.
		e.sweep(phaseRootLink, (numEdges+e.stride-1)/e.stride)
		e.sweep(phaseShortcut, g.N)
		e.sweep(phaseFinishLink, numEdges)
	} else {
		e.stride = 1
		e.sweep(phaseRootLink, numEdges)
	}
	e.sweep(phaseShortcut, g.N)
	if emit {
		obs.Emit(obs.Event{Source: "native", Category: "engine",
			Name: "round", Status: obs.StatusOK,
			DurationMS: float64(time.Since(start).Nanoseconds()) / 1e6,
			Measures:   map[string]float64{"round": 1}})
	}
	// Polled after the round too, so a cancellation during the
	// one-round solve is reported.
	if err := ctx.Err(); err != nil {
		return cancelled(1, err)
	}
	mRuns.Inc()
	mRounds.Inc()
	return 1, nil
}

// cancelled reports a run abandoned after the given rounds, emitting
// the cancelled-run event when a sink is attached.
//
//pramcc:zeroalloc
func cancelled(rounds int, err error) (int, error) {
	if obs.Enabled() {
		obs.Emit(obs.Event{Source: "native", Category: "engine",
			Name: "run", Status: obs.StatusCancelled,
			Measures: map[string]float64{"rounds": float64(rounds)}})
	}
	return rounds, err
}

// sweep runs one phase over [0, total) on the shared locality-aware
// scheduler.
//
//pramcc:zeroalloc
func (e *Engine) sweep(phase int32, total int) {
	e.phase = phase
	e.pool.Sharded(total, e.grain, e.chunk)
}

// chunkBody dispatches one claimed chunk to the current phase's sweep
// body. It always returns true: the native engine polls ctx around
// its round, not per chunk.
//
//pramcc:zeroalloc
func (e *Engine) chunkBody(_, lo, hi int) bool {
	switch e.phase {
	case phaseRootLink:
		e.rootLinkEdges(lo, hi)
	case phaseFinishLink:
		e.finishLinkEdges(lo, hi)
	default:
		e.shortcut(lo, hi)
	}
	return true
}

// rootLinkEdges links, for each j in [lo, hi), the roots of edge
// j·stride all the way (uf.Link), so both endpoints share a root when
// the call moves on. Arcs come in mirror pairs, so edge i is the
// adjacent pair (U[2i], U[2i+1]) of the graph's U column — one
// contiguous 8-byte record — and covering it once covers both
// directions; Graph.Validate, which every pramcc entry point runs
// first, rejects non-mirror arcs. With stride 1 the sweep covers every
// edge and connects the whole label forest regardless of diameter;
// with a larger stride it links the round's sample.
//
//pramcc:zeroalloc
func (e *Engine) rootLinkEdges(lo, hi int) {
	arcs, labels, stride := e.g.U, e.labels, e.stride
	for j := lo; j < hi; j++ {
		i := 2 * j * stride
		if u, v := arcs[i], arcs[i+1]; u != v {
			uf.Link(labels, u, v)
		}
	}
}

// finishLinkEdges is the rest of a sampled round: every edge of
// [lo, hi) whose endpoints carry different labels is root-linked, and
// the others are skipped. The skip is sound because equal labels mean
// u and v have the same parent, so they already share a tree; after
// the sample's shortcut that covers most edges of its giant component,
// which then cost two reads and no CAS.
//
//pramcc:zeroalloc
func (e *Engine) finishLinkEdges(lo, hi int) {
	arcs, labels := e.g.U, e.labels
	for i := lo; i < hi; i++ {
		u, v := arcs[2*i], arcs[2*i+1]
		if atomic.LoadInt32(&labels[u]) != atomic.LoadInt32(&labels[v]) {
			uf.Link(labels, u, v)
		}
	}
}

// shortcut points every vertex in [lo, hi) at its root. No link runs
// during a shortcut sweep and each vertex belongs to one chunk, so
// labels[v] has one writer, and a concurrent walk through v reads
// either its old parent or its root, both ancestors.
//
//pramcc:zeroalloc
func (e *Engine) shortcut(lo, hi int) {
	labels := e.labels
	for v := lo; v < hi; v++ {
		p := atomic.LoadInt32(&labels[v])
		root := p
		for {
			parent := atomic.LoadInt32(&labels[root])
			if parent == root {
				break
			}
			root = parent
		}
		if root != p {
			atomic.StoreInt32(&labels[v], root)
		}
	}
}

// Components computes the connected components of g one-shot: a fresh
// engine (and worker pool) is built and torn down around a single Run.
// Long-lived callers should hold an Engine (or a pramcc.Solver) to
// amortize that construction.
func Components(g *graph.Graph, opt Options) *Result {
	e := NewEngineOpt(opt)
	defer e.Close()
	labels := make([]int32, g.N)
	rounds, _ := e.Run(context.Background(), g, labels)
	return &Result{Labels: labels, Rounds: rounds, Workers: e.Workers()}
}
