// Package forest is the shared-memory engine behind both parallel
// backends: connected components computed on goroutines over the
// concurrent disjoint-set kernel in internal/uf, aimed at wall-clock
// speed rather than model-cost accounting. It is the paper's one
// primitive on an ARBITRARY CRCW PRAM — link a root under another
// root, then shortcut — run asynchronously, and the uf package doc
// holds the invariants that make every interleaving safe.
//
// The engine has three operations on a parent forest:
//
//   - link a span of edges into the forest (link). Every sweep reads
//     edge i as the mirror pair (U[2i], U[2i+1]) of the span's U column,
//     one contiguous 8-byte record, so no link sweep touches V. A span
//     with m < 2.5·n is one root-link sweep: uf.Link on every edge,
//     which connects the whole forest in one pass regardless of
//     diameter. A larger span goes sample → shortcut → finish (the
//     Afforest/ConnectIt recipe) over blocks of 256 consecutive edges
//     (2 KiB of U): it links every s-th block, s = ⌊m/(5n/4)⌋, so about
//     1.25·n edges build most of the forest while the sweep reads only
//     the sampled blocks of U, shortcuts it flat, then sweeps the other
//     blocks, skipping edges whose endpoints already carry one parent
//     (two reads, no CAS — the bulk of a sample's giant component) and
//     linking the rest. Both forms hold on any forest that keeps the uf
//     invariants, fresh or not.
//   - flatten the forest in place (Run). The forest is the caller's
//     label array, started as the identity: a one-shot solve is one
//     round — a validation sweep over the graph's arc pairs, one link
//     of its own arc column and one shortcut sweep that also counts the
//     components — with no verification round after it, and allocates
//     nothing.
//   - flatten the forest into a fresh column and publish it
//     (AddSpan). The engine keeps a live forest that streaming batches
//     are linked into; after each batch every vertex's root is
//     resolved into a new labels column, published through an atomic
//     pointer as an immutable Snapshot.
//
// The labels are exact on every interleaving. By the uf invariants a
// tree's root is its minimum id and trees merge but never split. A link
// of edge (u, v) returns once u and v share a tree, and a finish-sweep
// skip reads u and v with one parent, so when the link sweeps end both
// endpoints of every edge share a tree: the trees are the components.
// No root moves during a flatten, so it labels every vertex with its
// component's minimum id — the same canonical labeling whichever
// operation produced it.
//
// Work is sharded over the locality-aware grain-claim scheduler in
// internal/pool: each worker sweeps a sticky contiguous home range of
// the edge (and vertex) space first and steals from other ranges only
// after exhausting it, so the same forest cache lines keep landing in
// the same core across the sweeps of an operation. Every sweep runs
// one chunk body, bound once at construction, which polls ctx per
// chunk: a cancelled operation stops within one chunk per worker.
//
// A streaming batch costs Θ(batch) near-constant-time links plus a
// Θ(n) flatten-and-publish pass: the per-update price of
// snapshot-consistent O(1) queries. Readers take the currently
// published Snapshot, so they are safe to run concurrently with an
// in-flight AddSpan and always observe a batch boundary, never a
// half-linked batch. A run of batches can also be linked with LinkSpan
// and published once with Publish, which pays the flatten once. The
// writers (Run, AddSpan, AddSpanContext, LinkSpan, Publish, Reset,
// RestoreLabels, Grow) must be called from one goroutine at a time.
package forest

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/uf"
	"repro/internal/wire"
)

// Engine metrics, process-wide. One-shot solves count runs and
// link+shortcut rounds; streaming batches count batches and edges. The
// adds sit inside the regions TestEngineFirstRunZeroAlloc and
// TestSpanIngestZeroAlloc pin at zero allocations, which is why they
// are plain atomic counters and every event envelope is gated on an
// attached sink.
var (
	mRuns = obs.Default.Counter("pramcc_native_runs_total",
		"completed native-engine Run calls")
	mRounds = obs.Default.Counter("pramcc_native_rounds_total",
		"link+shortcut rounds executed by the native engine")
	mBatches = obs.Default.Counter("pramcc_uf_batches_total",
		"edge batches absorbed by the streaming union-find")
	mEdges = obs.Default.Counter("pramcc_uf_edges_total",
		"edges unioned into the streaming union-find")
)

// Options configures an engine.
type Options struct {
	// Workers is the goroutine count; 0 selects GOMAXPROCS.
	Workers int
	// Grain is the number of edges or vertices a worker claims per
	// fetch of a range cursor; 0 derives pool.AdaptiveGrain from the
	// sweep size and worker count. A sampled round claims whole blocks
	// of edges, so its sweeps round the grain up to a block multiple.
	Grain int
}

// Snapshot is a consistent view of the streaming labeling as of a batch
// boundary. Labels is shared and must not be modified.
type Snapshot struct {
	// Labels assigns every vertex its component representative (the
	// minimum vertex id of the component, as in a one-shot Run).
	Labels []int32
	// Components is the number of distinct labels.
	Components int
	// Batches is how many batches had been ingested since the last
	// Reset or RestoreLabels when this snapshot was taken.
	Batches int
	// Edges is the total number of edges ingested across those batches.
	Edges int64
}

// phase selects the chunk body of the current sweep.
const (
	phaseValidate   int32 = iota // OR range and mirror violations of arc pairs
	phaseRootLink                // link the roots of every edge
	phaseSampleLink              // link the roots of every edge of every stride-th block
	phaseFinishLink              // link the roots of edges whose parents differ, outside the sample
	phaseShortcut                // point every vertex at its root, in place, counting roots
	phaseFlatten                 // resolve every vertex's root into out, counting roots
)

// blockEdges is the edge count of a sampled round's block: 256 edges
// are 2 KiB of U, so a sample of whole blocks streams only the blocks
// it links, where a sample of every s-th edge touches every cache line
// of U once s·8 bytes reach the 64-byte line.
const blockEdges = 256

// sampleStride returns the block stride s of a link's sample,
// ⌊m/(5n/4)⌋, so the sample of every s-th block holds about 1.25·n
// edges. The sample pays off only when it leaves most edges to the
// skip test, so link samples only at s ≥ 2, that is m ≥ 2.5·n (forcing
// s = 2 was no faster at m/n = 2 and slower at m/n = 1); the constant
// is from the stride sweep in EXPERIMENTS.md appendix A3.
//
//pramcc:zeroalloc
func sampleStride(n, m int) int {
	return int(4 * int64(m) / (5 * int64(n)))
}

// Engine is a reusable shared-memory engine. It owns a worker pool
// spawned once at construction and a live forest for streaming
// batches; Close releases the pool.
type Engine struct {
	pool  *pool.Pool
	grain int

	// The streaming state: parent is the live forest (parent[x] ≤ x,
	// changed only by CAS while a link runs), snap its last published
	// flatten.
	parent  []int32
	snap    atomic.Pointer[Snapshot]
	batches int
	edges   int64

	// Sweep state, written by the single writer between pool barriers
	// only and read by chunk, the one chunk body, which is bound once
	// at construction so no operation creates a closure (and therefore
	// allocates) per call. The claim cursors live in the scheduler.
	ctx     context.Context
	forest  []int32 // the forest being swept: parent, or Run's labels
	arcs    []int32 // the U column being linked or validated
	mirrors []int32 // phaseValidate's V column
	stride  int     // a sampled round's block stride
	out     []int32 // phaseFlatten's fresh labels
	bad     atomic.Bool
	roots   atomic.Int64
	phase   int32
	chunk   func(worker, lo, hi int) bool

	// comps is the component count of the last Run that returned nil.
	comps int
}

// New returns an engine with a live worker pool and a streaming forest
// over n isolated vertices. Close must be called to release the pool's
// goroutines.
func New(n int, opt Options) *Engine {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{pool: pool.New(workers), grain: opt.Grain}
	e.chunk = e.chunkBody
	e.Reset(n)
	return e
}

// Workers returns the resolved worker count of the pool.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Grain returns the configured claim grain (0 = adaptive).
func (e *Engine) Grain() int { return e.grain }

// N returns the vertex count of the streaming forest.
//
//pramcc:zeroalloc
func (e *Engine) N() int { return len(e.parent) }

// Close releases the worker pool. The published snapshot remains
// queryable; further writer calls are invalid.
func (e *Engine) Close() { e.pool.Close() }

// Snapshot returns the streaming labeling as of the last completed
// batch.
//
//pramcc:zeroalloc
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Run computes the connected components of g into labels, which must
// have length g.N; on return labels[v] is the minimum vertex id of
// v's component, and Components reports how many components there are.
// labels is the forest: it starts as the identity, g's edges are linked
// into it, and it is flattened in place. The streaming forest is not
// touched. Run returns the number of link+shortcut rounds run: 1 on any
// graph with an edge, 0 on a graph without edges.
//
// The round opens with a validation sweep over g's arc pairs on the
// pool, so no link reads an arc before it is known to be in range. A
// graph that Graph.Validate rejects gets exactly its error, with 0
// rounds; the labels buffer then holds the identity.
//
// ctx is checked before the round, at every chunk boundary, after the
// validation sweep and after the round: when it is cancelled or past
// its deadline, Run returns ctx.Err() with the rounds it started. The
// labels buffer then holds a partial labeling that the caller must
// discard.
func (e *Engine) Run(ctx context.Context, g *graph.Graph, labels []int32) (int, error) {
	rounds, err := e.run(ctx, g, labels)
	if err == errInvalid {
		return 0, g.Validate()
	}
	return rounds, err
}

// errInvalid is run's report of a graph that Graph.Validate rejects;
// Run replaces it with Validate's own error, so only a rejected graph
// pays for building one.
var errInvalid = errors.New("forest: invalid graph")

// run is Run without the error text of a rejected graph.
//
//pramcc:zeroalloc
func (e *Engine) run(ctx context.Context, g *graph.Graph, labels []int32) (int, error) {
	if len(labels) != g.N {
		panic("forest: label buffer length does not match g.N")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range labels {
		labels[i] = int32(i)
	}
	if len(g.U) != len(g.V) || len(g.U)%2 != 0 {
		return 0, errInvalid
	}
	if g.NumEdges() == 0 {
		e.comps = g.N
		return 0, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return cancelled(0, err)
	}
	// Event emission is decided once per run: the envelope (and its
	// measures map) is built only when an operator attached a sink, so
	// the default run stays allocation-free.
	emit := obs.Enabled()
	var start time.Time
	if emit {
		start = time.Now()
	}
	e.ctx, e.forest, e.arcs, e.mirrors = ctx, labels, g.U, g.V
	e.bad.Store(false)
	e.sweep(phaseValidate, g.NumEdges(), e.grain)
	e.mirrors = nil
	if err := ctx.Err(); err != nil {
		e.ctx, e.forest, e.arcs = nil, nil, nil
		return cancelled(1, err)
	}
	if e.bad.Load() {
		e.ctx, e.forest, e.arcs = nil, nil, nil
		return 0, errInvalid
	}
	e.link(g.U)
	e.roots.Store(0)
	e.sweep(phaseShortcut, g.N, e.grain)
	e.comps = int(e.roots.Load())
	e.ctx, e.forest, e.arcs = nil, nil, nil
	if emit {
		obs.Emit(obs.Event{Source: "native", Category: "engine",
			Name: "round", Status: obs.StatusOK,
			DurationMS: float64(time.Since(start).Nanoseconds()) / 1e6,
			Measures:   map[string]float64{"round": 1}})
	}
	if err := ctx.Err(); err != nil {
		return cancelled(1, err)
	}
	mRuns.Inc()
	mRounds.Inc()
	return 1, nil
}

// Components returns the component count of the labels the last Run
// that returned nil produced, counted by its closing shortcut sweep.
//
//pramcc:zeroalloc
func (e *Engine) Components() int { return e.comps }

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

// Reset discards the streaming state and re-initialises the forest
// over n isolated vertices, reusing its buffer (and keeping the worker
// pool alive) when capacity allows. It publishes a fresh identity
// snapshot; snapshots handed out earlier stay valid.
func (e *Engine) Reset(n int) {
	e.resize(n)
	labels := wire.Column(n)
	for i := range labels {
		e.parent[i] = int32(i)
		labels[i] = int32(i)
	}
	e.batches, e.edges = 0, 0
	e.snap.Store(&Snapshot{Labels: labels, Components: n})
}

// RestoreLabels discards the streaming state and re-initialises the
// forest to the exact components of labels, which it publishes as the
// current snapshot without a copy: the caller hands over an immutable
// labeling, typically one already published. labels must be canonical
// (labels[v] is the minimum vertex id of v's component), which makes
// it directly usable as a depth-one parent forest, so the forest is
// its one copy.
func (e *Engine) RestoreLabels(labels []int32) {
	e.resize(len(labels))
	copy(e.parent, labels)
	comps := 0
	for v, l := range labels {
		if int(l) == v {
			comps++
		}
	}
	e.batches, e.edges = 0, 0
	e.snap.Store(&Snapshot{Labels: labels, Components: comps})
}

// Grow extends the vertex set to n, preserving every component built
// so far; the new vertices are isolated. A no-op when n ≤ N(). The
// published snapshot is not advanced (the new vertices appear in the
// snapshot after the next completed batch or Publish).
func (e *Engine) Grow(n int) {
	old := len(e.parent)
	if n <= old {
		return
	}
	e.resize(n)
	for v := old; v < n; v++ {
		e.parent[v] = int32(v)
	}
}

// resize sets the forest to n vertices, keeping the parents of the
// first min(n, N()), and reuses the buffer when its capacity allows.
// Parents past the kept prefix are unset: the caller writes them.
func (e *Engine) resize(n int) {
	if cap(e.parent) >= n {
		e.parent = e.parent[:n]
		return
	}
	parent := wire.Column(n)
	copy(parent, e.parent)
	e.parent = parent
}

// AddSpan links one batch, given as a columnar arc-pair span, into the
// streaming forest and publishes a new snapshot. The span's U column
// is sharded over the worker pool as-is, so a batch sliced from a
// Graph (SpanBatches), a loader span, or graph.FromPairs output is
// linked with no copy, no boxing, and no per-edge allocation. A span
// that graph.EdgeSpan.Validate rejects — mismatched or odd columns, an
// endpoint outside [0, N()), arcs that are not mirror pairs — is
// rejected whole: nothing is applied.
func (e *Engine) AddSpan(span graph.EdgeSpan) (*Snapshot, error) {
	return e.AddSpanContext(context.Background(), span)
}

// AddSpanContext is AddSpan with cancellation: ctx is checked before
// any work and at every chunk boundary of the link. On cancellation no
// snapshot is published and ctx.Err() is returned — queries keep
// observing the last completed batch, never a partial one. The
// cancelled batch may have been partially linked into the
// (unpublished) forest; because links are idempotent, re-submitting
// the same span yields exactly the labeling the uncancelled call would
// have produced.
func (e *Engine) AddSpanContext(ctx context.Context, span graph.EdgeSpan) (*Snapshot, error) {
	if err := e.linkSpan(ctx, span); err != nil {
		return nil, err
	}
	return e.Publish(), nil
}

// LinkSpan is AddSpan without the publish: the span is validated and
// linked into the streaming forest and counted as a batch, but the
// published snapshot stays where it was until the next Publish (or
// AddSpan). A run of K spans then costs Θ(K·batch) links and one Θ(n)
// flatten instead of K of them — how a warm start replays its WAL.
func (e *Engine) LinkSpan(span graph.EdgeSpan) error {
	return e.linkSpan(context.Background(), span)
}

// linkSpan validates span against the forest, links it and counts the
// batch; on any error nothing is counted.
func (e *Engine) linkSpan(ctx context.Context, span graph.EdgeSpan) error {
	if err := span.Validate(len(e.parent)); err != nil {
		return err
	}
	if err := e.ingestSpan(ctx, span); err != nil {
		return err
	}
	e.batches++
	e.edges += int64(span.Len())
	return nil
}

// ingestSpan links a validated span into the streaming forest and
// records the batch; it performs zero allocations. Writer-only.
//
//pramcc:zeroalloc
func (e *Engine) ingestSpan(ctx context.Context, span graph.EdgeSpan) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if span.Len() == 0 {
		e.noteIngest(0, 0)
		return nil
	}
	emit := obs.Enabled()
	var start time.Time
	if emit {
		start = time.Now()
	}
	e.ctx, e.forest = ctx, e.parent
	e.link(span.U)
	e.ctx, e.forest, e.arcs = nil, nil, nil
	if err := ctx.Err(); err != nil {
		e.noteIngestErr(err)
		return err
	}
	e.noteIngest(span.Len(), elapsedIf(emit, start))
	return nil
}

// noteIngest records a completed batch on the union-find metrics and,
// when a sink is attached, emits the batch-boundary event. Counter
// adds are atomic and allocation-free; the envelope (with its measures
// map) is built only under an attached sink.
//
//pramcc:zeroalloc
func (e *Engine) noteIngest(edges int, d time.Duration) {
	mBatches.Inc()
	mEdges.Add(int64(edges))
	if obs.Enabled() {
		obs.Emit(obs.Event{Source: "incremental", Category: "engine",
			Name: "batch", Status: obs.StatusOK,
			DurationMS: float64(d.Nanoseconds()) / 1e6,
			Measures:   map[string]float64{"edges": float64(edges)}})
	}
}

// noteIngestErr emits the cancelled-batch event; the batch is not
// counted (nothing was published).
//
//pramcc:zeroalloc
func (e *Engine) noteIngestErr(err error) {
	if obs.Enabled() {
		status := obs.StatusError
		if err == context.Canceled || err == context.DeadlineExceeded {
			status = obs.StatusCancelled
		}
		obs.Emit(obs.Event{Source: "incremental", Category: "engine",
			Name: "batch", Status: status})
	}
}

// elapsedIf returns the elapsed time since start when timing was
// enabled, 0 otherwise (start is the zero Time then).
//
//pramcc:zeroalloc
func elapsedIf(enabled bool, start time.Time) time.Duration {
	if !enabled {
		return 0
	}
	return time.Since(start)
}

// Publish flattens the streaming forest — every batch linked so far,
// over every vertex grown so far — into a fresh snapshot, publishes it
// and returns it. It runs after the link barrier, so every tree is
// stable: finds during the flatten only compress paths, never change
// roots. The labels slice and the Snapshot itself are the only
// allocations of a whole batch — inherent to immutable snapshot
// publication, since earlier snapshots stay queryable forever. The
// labels come unzeroed from wire.Column: the flatten sweeps all n
// vertices and writes each label once before the snapshot is stored.
// The flatten runs to completion whatever the batch's ctx, so it binds
// a context that is never cancelled.
func (e *Engine) Publish() *Snapshot {
	labels := wire.Column(len(e.parent))
	e.ctx, e.forest, e.out = context.Background(), e.parent, labels
	e.roots.Store(0)
	e.sweep(phaseFlatten, len(labels), e.grain)
	e.ctx, e.forest, e.out = nil, nil, nil
	s := &Snapshot{
		Labels:     labels,
		Components: int(e.roots.Load()),
		Batches:    e.batches,
		Edges:      e.edges,
	}
	e.snap.Store(s)
	return s
}

// link joins the endpoints of every edge of arcs, a mirror-pair U
// column, in e.forest: one root-link sweep, or on m ≥ 2.5·n the
// sampled sample → shortcut → finish round over whole blocks. The
// caller binds e.ctx and e.forest; a cancelled ctx stops every sweep
// within a chunk per worker.
//
//pramcc:zeroalloc
func (e *Engine) link(arcs []int32) {
	n, m := len(e.forest), len(arcs)/2
	e.arcs = arcs
	if e.stride = sampleStride(n, m); e.stride < 2 {
		e.sweep(phaseRootLink, m, e.grain)
		return
	}
	blocks := (m + blockEdges - 1) / blockEdges
	e.sweep(phaseSampleLink, (blocks+e.stride-1)/e.stride, e.blockGrain(m/e.stride))
	e.sweep(phaseShortcut, n, e.grain)
	e.sweep(phaseFinishLink, blocks, e.blockGrain(m))
}

// blockGrain is the claim grain, in blocks, of a block sweep over the
// given number of edges: the engine's edge grain, or the adaptive one
// for that many edges, rounded up to whole blocks.
//
//pramcc:zeroalloc
func (e *Engine) blockGrain(edges int) int {
	grain := e.grain
	if grain <= 0 {
		grain = pool.AdaptiveGrain(edges, e.pool.Workers())
	}
	return (grain + blockEdges - 1) / blockEdges
}

// sweep runs one phase over [0, total) on the shared locality-aware
// scheduler, grain items per claim (0 = adaptive).
//
//pramcc:zeroalloc
func (e *Engine) sweep(phase int32, total, grain int) {
	e.phase = phase
	e.pool.Sharded(total, grain, e.chunk)
}

// chunkBody runs one claimed chunk of the current phase. The ctx poll
// per chunk is the cancellation contract: returning false stops this
// worker's claim loop, and the other workers observe the same ctx on
// their own next chunk.
//
//pramcc:zeroalloc
func (e *Engine) chunkBody(_, lo, hi int) bool {
	if e.ctx.Err() != nil {
		return false
	}
	switch e.phase {
	case phaseValidate:
		e.validateEdges(lo, hi)
	case phaseRootLink:
		e.rootLinkEdges(lo, hi)
	case phaseSampleLink:
		e.sampleLinkBlocks(lo, hi)
	case phaseFinishLink:
		e.finishLinkBlocks(lo, hi)
	case phaseShortcut:
		e.shortcut(lo, hi)
	default:
		e.flatten(lo, hi)
	}
	return true
}

// validateEdges checks the arc pairs of edges [lo, hi) the way
// Graph.Validate does — both arcs of a pair in [0, n) and V mirroring
// them — without a branch per pair: it keeps the largest endpoint seen,
// as unsigned so a negative one is huge, and ORs the XOR of each V arc
// with the U arc it must mirror. A chunk that finds a violation sets
// e.bad; Run then asks Graph.Validate for the error.
//
//pramcc:zeroalloc
func (e *Engine) validateEdges(lo, hi int) {
	arcs := e.arcs[2*lo : 2*hi]
	mirrors := e.mirrors[2*lo : 2*hi]
	mirrors = mirrors[:len(arcs)]
	var top uint32
	var diff int32
	for i := 0; i+1 < len(arcs); i += 2 {
		u, v := arcs[i], arcs[i+1]
		top = max(top, uint32(u), uint32(v))
		diff |= (mirrors[i] ^ v) | (mirrors[i+1] ^ u)
	}
	if top >= uint32(len(e.forest)) || diff != 0 {
		e.bad.Store(true)
	}
}

// rootLinkEdges links the roots of every edge of [lo, hi) all the way
// (uf.Link), so both endpoints share a root when the call moves on.
// Arcs come in mirror pairs, so edge i is the adjacent pair
// (U[2i], U[2i+1]) and covering it once covers both directions; Run's
// validation sweep and EdgeSpan.Validate reject non-mirror arcs before
// any link. Over every edge the sweep connects the whole forest
// regardless of diameter; over a block it links part of a sample.
//
//pramcc:zeroalloc
func (e *Engine) rootLinkEdges(lo, hi int) {
	arcs, forest := e.arcs[2*lo:2*hi], e.forest
	for i := 0; i+1 < len(arcs); i += 2 {
		if u, v := arcs[i], arcs[i+1]; u != v {
			uf.Link(forest, u, v)
		}
	}
}

// sampleLinkBlocks root-links the sample blocks j·stride, j in
// [lo, hi): whole blocks of consecutive edges, the last one cut at m.
//
//pramcc:zeroalloc
func (e *Engine) sampleLinkBlocks(lo, hi int) {
	m := len(e.arcs) / 2
	for j := lo; j < hi; j++ {
		first := j * e.stride * blockEdges
		e.rootLinkEdges(first, min(first+blockEdges, m))
	}
}

// finishLinkBlocks is the rest of a sampled round over blocks [lo, hi):
// it skips the sample blocks, already linked, and in every other block
// root-links each edge whose endpoints have different parents, skipping
// the others. The skip is sound because equal parents mean u and v
// already share a tree; after the sample's shortcut that covers most
// edges of its giant component, which then cost two reads and no CAS.
//
//pramcc:zeroalloc
func (e *Engine) finishLinkBlocks(lo, hi int) {
	m, forest := len(e.arcs)/2, e.forest
	for b := lo; b < hi; b++ {
		if b%e.stride == 0 {
			continue
		}
		first := b * blockEdges
		arcs := e.arcs[2*first : 2*min(first+blockEdges, m)]
		for i := 0; i+1 < len(arcs); i += 2 {
			u, v := arcs[i], arcs[i+1]
			if atomic.LoadInt32(&forest[u]) != atomic.LoadInt32(&forest[v]) {
				uf.Link(forest, u, v)
			}
		}
	}
}

// shortcut points every vertex in [lo, hi) at its root and counts the
// roots. No link runs during a shortcut sweep and each vertex belongs
// to one chunk, so forest[v] has one writer, and a concurrent walk
// through v reads either its old parent or its root, both ancestors.
// Roots stay put, so the count after Run's closing shortcut is the
// component count.
//
//pramcc:zeroalloc
func (e *Engine) shortcut(lo, hi int) {
	forest := e.forest
	local := int64(0)
	for v := lo; v < hi; v++ {
		p := atomic.LoadInt32(&forest[v])
		root := p
		for {
			parent := atomic.LoadInt32(&forest[root])
			if parent == root {
				break
			}
			root = parent
		}
		if root != p {
			atomic.StoreInt32(&forest[v], root)
		}
		if root == int32(v) {
			local++
		}
	}
	if local != 0 {
		e.roots.Add(local)
	}
}

// flatten resolves the root of every vertex in [lo, hi) into the
// labels being published, splitting paths in the forest on the way,
// and counts the roots seen.
//
//pramcc:zeroalloc
func (e *Engine) flatten(lo, hi int) {
	forest, out := e.forest, e.out
	local := int64(0)
	for v := lo; v < hi; v++ {
		r := uf.Find(forest, int32(v))
		out[v] = r
		if r == int32(v) {
			local++
		}
	}
	if local != 0 {
		e.roots.Add(local)
	}
}
