// Package native is the shared-memory execution backend: connected
// components computed directly on goroutines with atomic
// compare-and-swap on the label array, aimed at wall-clock speed
// rather than model-cost accounting.
//
// The algorithm is the Liu–Tarjan label-propagation framework
// specialized to its practical core: every round performs a
// link-to-minimum step over the edges (each endpoint's current root
// label is lowered towards the smaller of the two via CAS-min) and a
// shortcutting step over the vertices (pointer jumping repeated to the
// root, compressing every chain to depth one). Labels only ever
// decrease and every vertex's label always names a vertex of the same
// component, so no step barrier, snapshot semantics, or per-step cost
// accounting is needed. The asynchronous races the simulator's
// ARBITRARY write-resolution models explicitly are simply allowed to
// happen here; CAS-min makes every interleaving safe.
//
// Work is sharded over the locality-aware grain-claim scheduler in
// internal/pool: each worker sweeps a sticky contiguous home range of
// the edge (and vertex) space first and steals from other ranges only
// after exhausting it, so the same label cache lines keep landing in
// the same core across the sweeps of a solve. The first round links
// each edge to the root (the incremental engine's union discipline,
// with path splitting), which connects the whole label forest in one
// pass regardless of diameter. On graphs with m ≥ 2.5n the first round
// goes sample → shortcut → finish (the Afforest/ConnectIt recipe): it
// root-links every s-th edge, s = ⌊m/(5n/4)⌋, so about 1.25n edges
// build most of the forest, shortcuts it flat, then sweeps every edge,
// skipping those whose endpoints already carry one label (two reads,
// no CAS — the bulk of a sample's giant component) and root-linking
// the rest, before the round's shortcut. Below that density round 1
// is the single root-link sweep over every edge.
//
// That round is the whole solve, with no verification round after it,
// and its labels are exact on every interleaving. Every write keeps
// labels[x] ≤ x, so each tree's root is its minimum id. A root link
// only hangs one root under another, and path splitting and shortcuts
// only move a vertex to an ancestor, so trees merge but never split.
// A root link of edge (u, v) returns once u and v were seen in one
// tree, and a finish-sweep skip reads u and v with one parent, so when
// the link sweeps end both endpoints of every edge share a tree: the
// trees are the components. No root moves during the closing
// shortcut, so it points every vertex at its component's minimum id.
// The NoRootLink ablation links one hop per edge instead and keeps the
// Liu–Tarjan loop, whose convergence proof is a full round with no
// change.
//
// Every link sweep reads edge i as the mirror pair (g.U[2i], g.U[2i+1]):
// the graph's own U column already is the interleaved [u v] record
// layout, so no sweep touches V and the engine keeps no copy of the
// arcs. Options carries ablation switches for the root link and the
// scheduler's range affinity.
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
)

// Engine-level metrics: completed runs and link+shortcut rounds,
// process-wide. Counted once per run (not per round), so the hot loop
// pays nothing until convergence.
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
	// NoAffinity disables the sticky range-to-worker assignment and
	// claims from one shared cursor (the pre-scheduler behavior).
	NoAffinity bool
	// NoRootLink disables the root-linking first sweep and performs
	// one-hop CAS-min on every link sweep (the pre-scheduler behavior).
	// Both No* switches exist for the E17 ablation.
	NoRootLink bool
}

// Result is a component labeling with engine statistics. Unlike the
// simulated backends there are no model costs: only real quantities.
type Result struct {
	// Labels assigns every vertex a component representative (the
	// minimum vertex id of its component, by the CAS-min discipline).
	Labels []int32
	// Rounds is the number of link+shortcut rounds until convergence.
	Rounds int
	// Workers is the resolved worker count that executed the run.
	Workers int
}

// phase selects the chunk body of the current sweep.
const (
	phaseRootLink   int32 = iota // link the roots of every stride-th edge
	phaseFinishLink              // link the roots of edges whose labels differ
	phaseLink                    // one-hop CAS-min over every edge
	phaseShortcut
)

// sampleStride returns the stride s of round 1's sample, ⌊m/(5n/4)⌋,
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
	pool       *Pool
	changed    atomic.Bool
	grain      int
	noAffinity bool
	noRootLink bool

	// Per-run state, written by Run between pool barriers only.
	g      *graph.Graph
	labels []int32
	phase  int32
	stride int // phaseRootLink's edge stride: 1, or round 1's sample stride

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
	e := &Engine{
		pool:       NewPool(workers),
		grain:      opt.Grain,
		noAffinity: opt.NoAffinity,
		noRootLink: opt.NoRootLink,
	}
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
// 1 on any graph with an edge, unless the engine was built with
// NoRootLink, and 0 on a graph without edges.
//
// ctx is checked at every round boundary, the end of the last round
// included: when it is cancelled or past its deadline, Run abandons
// the computation and returns ctx.Err() within one round. The labels
// buffer then holds a partial (monotone but unconverged) labeling that
// the caller must discard.
//
// The returned labeling is exact on every interleaving: correctness
// depends only on the monotone CAS-min discipline, not on scheduling.
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
	e.g, e.labels = g, labels
	defer func() { e.g, e.labels = nil, nil }()

	linkPhase := phaseRootLink
	if e.noRootLink {
		linkPhase = phaseLink
	}
	e.stride = sampleStride(g.N, numEdges)
	if e.stride < 2 {
		e.stride = 1
	}

	// Event emission is decided once per run: the envelope (and its
	// measures map) is built only when an operator attached a sink, so
	// the default round loop stays allocation-free.
	emit := obs.Enabled()
	var roundStart time.Time
	rounds, done := 0, false
	for {
		// Polled after the last round too, so a cancellation during a
		// one-round solve is reported.
		if err := ctx.Err(); err != nil {
			if emit {
				obs.Emit(obs.Event{Source: "native", Category: "engine",
					Name: "run", Status: obs.StatusCancelled,
					Measures: map[string]float64{"rounds": float64(rounds)}})
			}
			return rounds, err
		}
		if done {
			mRuns.Inc()
			mRounds.Add(int64(rounds))
			return rounds, nil
		}
		rounds++
		if emit {
			roundStart = time.Now()
		}
		var linked bool
		if linkPhase == phaseRootLink && e.stride > 1 {
			// Round 1 on a dense graph: sample, shortcut, finish.
			linked = e.sweep(phaseRootLink, (numEdges+e.stride-1)/e.stride)
			e.sweep(phaseShortcut, g.N)
			linked = e.sweep(phaseFinishLink, numEdges) || linked
		} else {
			linked = e.sweep(linkPhase, numEdges)
		}
		cut := e.sweep(phaseShortcut, g.N)
		if emit {
			obs.Emit(obs.Event{Source: "native", Category: "engine",
				Name: "round", Status: obs.StatusOK,
				DurationMS: float64(time.Since(roundStart).Nanoseconds()) / 1e6,
				Measures: map[string]float64{
					"round":   float64(rounds),
					"changed": b2f(linked || cut),
				}})
		}
		// A root-linking round is exact on its own: when its link
		// sweeps end, both endpoints of every edge share a tree, and
		// its shortcut points each vertex at its tree's root, the
		// tree's minimum id (see the package doc). Otherwise (the
		// NoRootLink ablation) a full round with no successful CAS
		// means the labels are flat and agree across every edge: were
		// some edge's labels unequal, the link CAS-min on its larger
		// side would have succeeded against a flat (self-parented)
		// label. Labels strictly decrease on every change, so this
		// point is always reached.
		done = linkPhase == phaseRootLink || (!linked && !cut)
		linkPhase = phaseLink
	}
}

// b2f encodes a bool as a 0/1 event measure.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sweep runs the current phase over [0, total) on the shared
// locality-aware scheduler and reports whether any worker changed a
// label.
//
//pramcc:zeroalloc
func (e *Engine) sweep(phase int32, total int) bool {
	e.phase = phase
	e.changed.Store(false)
	e.pool.ShardedOpt(total, pool.ShardOptions{Grain: e.grain, NoAffinity: e.noAffinity}, e.chunk)
	return e.changed.Load()
}

// chunkBody dispatches one claimed chunk to the current phase's sweep
// body. It always returns true: the native engine cancels at round
// boundaries, not per chunk.
//
//pramcc:zeroalloc
func (e *Engine) chunkBody(_, lo, hi int) bool {
	var local bool
	switch e.phase {
	case phaseRootLink:
		local = e.rootLinkEdges(lo, hi)
	case phaseFinishLink:
		local = e.finishLinkEdges(lo, hi)
	case phaseLink:
		local = e.link(lo, hi)
	default:
		local = e.shortcut(lo, hi)
	}
	if local {
		e.changed.Store(true)
	}
	return true
}

// link lowers both endpoints of every edge in [lo, hi) towards the
// smaller of their two current labels. Arcs come in mirror pairs, so
// edge i is the adjacent pair (U[2i], U[2i+1]) of the graph's U column
// — one contiguous 8-byte record — and covering it once covers both
// directions (the update is symmetric in u and v). Graph.Validate,
// which every pramcc entry point runs first, rejects non-mirror arcs.
//
//pramcc:zeroalloc
func (e *Engine) link(lo, hi int) bool {
	arcs, labels := e.g.U, e.labels
	local := false
	for i := lo; i < hi; i++ {
		u, v := arcs[2*i], arcs[2*i+1]
		if u == v {
			continue
		}
		pu := atomic.LoadInt32(&labels[u])
		pv := atomic.LoadInt32(&labels[v])
		switch {
		case pv < pu:
			local = casMin(labels, pu, pv) || local
		case pu < pv:
			local = casMin(labels, pv, pu) || local
		}
	}
	return local
}

// rootLinkEdges is the first link sweep: for each j in [lo, hi) it
// links edge j·stride, read as link reads it, all the way — the larger
// root is CAS-linked under the smaller, retrying from the fresh roots
// on contention, so both endpoints share a root when the call moves on
// (the incremental engine's union discipline). With stride 1 it covers
// every edge, and one such sweep connects the whole label forest
// regardless of diameter, so the round's shortcut finishes the solve;
// with a larger stride it links round 1's sample.
//
//pramcc:zeroalloc
func (e *Engine) rootLinkEdges(lo, hi int) bool {
	arcs, labels, stride := e.g.U, e.labels, e.stride
	local := false
	for j := lo; j < hi; j++ {
		i := 2 * j * stride
		u, v := arcs[i], arcs[i+1]
		if u == v {
			continue
		}
		local = rootLink(labels, u, v) || local
	}
	return local
}

// finishLinkEdges is the rest of a sampled first round: every edge of
// [lo, hi) whose endpoints carry different labels is root-linked, and
// the others are skipped. The skip is sound because equal labels mean
// u and v have the same parent, so they already share a tree; after
// the sample's shortcut that covers most edges of its giant component,
// which then cost two reads and no CAS.
//
//pramcc:zeroalloc
func (e *Engine) finishLinkEdges(lo, hi int) bool {
	arcs, labels := e.g.U, e.labels
	local := false
	for i := lo; i < hi; i++ {
		u, v := arcs[2*i], arcs[2*i+1]
		if atomic.LoadInt32(&labels[u]) == atomic.LoadInt32(&labels[v]) {
			continue
		}
		local = rootLink(labels, u, v) || local
	}
	return local
}

// rootLink links the roots of u and v by index minimum, retrying on a
// lost race, and reports whether it wrote. Writes target current
// roots only and labels strictly decrease, so parent[x] ≤ x and
// acyclicity hold on every interleaving — the same argument as the
// incremental engine's union.
//
//pramcc:zeroalloc
func rootLink(labels []int32, u, v int32) bool {
	wrote := false
	for {
		ru, rv := findRoot(labels, u), findRoot(labels, v)
		if ru == rv {
			return wrote
		}
		if ru > rv {
			ru, rv = rv, ru
		}
		if atomic.CompareAndSwapInt32(&labels[rv], rv, ru) {
			return true
		}
		u, v = ru, rv
	}
}

// findRoot returns the root of x with path splitting: each visited
// vertex is CASed from its parent to its grandparent. A failed CAS
// means a racing find already improved the pointer; progress stays
// monotone because labels strictly decrease along every path.
//
//pramcc:zeroalloc
func findRoot(labels []int32, x int32) int32 {
	for {
		p := atomic.LoadInt32(&labels[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&labels[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&labels[x], p, gp)
		x = gp
	}
}

// shortcut pointer-jumps every vertex in [lo, hi) to its root.
//
//pramcc:zeroalloc
func (e *Engine) shortcut(lo, hi int) bool {
	labels := e.labels
	local := false
	for v := lo; v < hi; v++ {
		root := atomic.LoadInt32(&labels[v])
		for {
			parent := atomic.LoadInt32(&labels[root])
			if parent == root {
				break
			}
			root = parent
		}
		local = casMin(labels, int32(v), root) || local
	}
	return local
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

// casMin lowers labels[at] to val if val is smaller, retrying on
// contention. It reports whether it wrote. Labels only ever decrease,
// so the invariant "labels[x] names a vertex of x's component" is
// preserved by every interleaving of casMin calls.
//
//pramcc:zeroalloc
func casMin(labels []int32, at, val int32) bool {
	for {
		cur := atomic.LoadInt32(&labels[at])
		if val >= cur {
			return false
		}
		if atomic.CompareAndSwapInt32(&labels[at], cur, val) {
			return true
		}
	}
}
