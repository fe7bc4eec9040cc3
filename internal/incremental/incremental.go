// Package incremental is the streaming execution backend: a concurrent
// union-find engine that maintains a live component labeling while
// edges arrive in batches, so component queries stay fresh without
// recomputing from scratch on every update.
//
// The data structure is the lock-free disjoint-set forest of
// internal/uf, the same kernel the native engine's round runs: each
// edge is joined with uf.Link (the larger root CASed under the smaller)
// and the flatten resolves roots with uf.Find (path splitting). The uf
// package doc holds the invariants that make every interleaving safe.
//
// Batches arrive as columnar arc-pair spans (graph.EdgeSpan) and are
// ingested by sharding the edge range over the locality-aware
// grain-claim scheduler in internal/pool (contiguous chunks claimed
// off per-worker range cursors, with stealing after a worker's sticky
// home range is exhausted); pairs are converted with graph.FromPairs
// at the API boundary. After the pool barrier at the end of each
// batch, every component ingested so far is a single tree whose root
// is the minimum vertex id of the component — the same canonical
// labeling the one-shot native engine produces — and the engine
// flattens the forest into a fresh labels slice published via an
// atomic pointer. A batch therefore costs Θ(batch) near-constant-time
// unions plus a Θ(n) flatten-and-publish pass: the per-update price of
// snapshot-consistent O(1) queries. What streaming saves over
// recompute-per-batch is the repeated multi-round Θ(n + m) scans of
// the whole edge set, not the per-vertex pass.
//
// Readers take the currently published Snapshot, so they are safe to
// run concurrently with an in-flight AddSpan and always observe a
// consistent batch boundary, never a half-ingested batch. The writers
// (AddSpan, AddSpanContext, AddGraphContext, Reset, RestoreLabels,
// Grow) must be called from one goroutine at a time.
package incremental

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/uf"
	"repro/internal/wire"
)

// Union-find ingest metrics, process-wide across engines. The adds sit
// inside the sharded-ingest path — the region TestSpanIngestZeroAlloc
// pins at zero allocations — which is exactly why they are plain
// atomic counters and the event envelope is gated on an attached sink.
var (
	mBatches = obs.Default.Counter("pramcc_uf_batches_total",
		"edge batches absorbed by the streaming union-find")
	mEdges = obs.Default.Counter("pramcc_uf_edges_total",
		"edges unioned into the streaming union-find")
)

// Options configures an engine.
type Options struct {
	// Workers is the goroutine count of the batch pool; 0 selects
	// GOMAXPROCS.
	Workers int
	// Grain is the number of edges or vertices a worker claims per
	// fetch of a range cursor; 0 derives pool.AdaptiveGrain from the
	// batch size and worker count.
	Grain int
}

// Snapshot is a consistent view of the labeling as of a batch
// boundary. Labels is shared and must not be modified.
type Snapshot struct {
	// Labels assigns every vertex its component representative (the
	// minimum vertex id of the component, as in the native engine).
	Labels []int32
	// Components is the number of distinct labels.
	Components int
	// Batches is how many batches had been ingested when this
	// snapshot was taken.
	Batches int
	// Edges is the total number of edges ingested across all batches.
	Edges int64
}

// Engine is a concurrent union-find maintaining connected components
// under streaming edge batches. Snapshot may be called concurrently
// with one AddSpan/AddGraphContext call; ingestion itself is
// single-writer.
type Engine struct {
	n      int
	parent []int32 // CAS-only disjoint-set forest, parent[x] <= x
	pool   *pool.Pool
	snap   atomic.Pointer[Snapshot]

	grain int

	batches int
	edges   int64

	// Span-ingest state, written by the single writer between pool
	// barriers only. The chunk bodies are bound once at construction
	// so a steady-state span batch allocates nothing on the ingest
	// path (the native.Engine discipline): spanChunk unions the
	// columns of [spanU, spanV], pubChunk flattens the forest into
	// pubLabels. The claim cursors live in the scheduler.
	spanU, spanV []int32
	spanCtx      context.Context
	spanChunk    func(worker, lo, hi int) bool

	pubLabels []int32
	pubRoots  atomic.Int64
	pubChunk  func(worker, lo, hi int) bool
}

// New returns an engine over n isolated vertices with a live worker
// pool. Close must be called to release the pool's goroutines.
func New(n int, opt Options) *Engine {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{pool: pool.New(workers), grain: opt.Grain}
	e.spanChunk = e.spanChunkBody
	e.pubChunk = e.pubChunkBody
	e.Reset(n)
	return e
}

// Reset discards the ingested state and re-initialises the engine over
// n isolated vertices, reusing the parent buffer (and keeping the
// worker pool alive) when capacity allows. It publishes a fresh
// identity snapshot; snapshots handed out earlier stay valid. Reset is
// a writer operation: it must not race AddSpan/AddGraphContext.
func (e *Engine) Reset(n int) {
	if cap(e.parent) >= n {
		e.parent = e.parent[:n]
	} else {
		e.parent = wire.Column(n)
	}
	e.n = n
	labels := wire.Column(n)
	for i := range labels {
		e.parent[i] = int32(i)
		labels[i] = int32(i)
	}
	e.batches, e.edges = 0, 0
	e.snap.Store(&Snapshot{Labels: labels, Components: n})
}

// RestoreLabels discards the ingested state and re-initialises the
// forest to the exact components of a previously published labeling,
// republishing it as the current snapshot. labels must be a canonical
// engine labeling (labels[v] is the minimum vertex id of v's
// component), which makes it directly usable as a depth-one parent
// forest. This is the recovery path for a writer whose destructive
// rebuild (Reset + re-ingest) was cancelled midway: the live labeling
// snaps back to the snapshot the readers never stopped seeing. Writer
// operation, like Reset.
func (e *Engine) RestoreLabels(labels []int32) {
	n := len(labels)
	if cap(e.parent) >= n {
		e.parent = e.parent[:n]
	} else {
		e.parent = make([]int32, n)
	}
	e.n = n
	copy(e.parent, labels)
	snap := slices.Clone(labels)
	comps := 0
	for v, l := range labels {
		if int(l) == v {
			comps++
		}
	}
	e.batches, e.edges = 0, 0
	e.snap.Store(&Snapshot{Labels: snap, Components: comps})
}

// Grow extends the vertex set to n, preserving every component built
// so far; the new vertices are isolated. A no-op when n ≤ N(). Grow is
// a writer operation like AddSpan; the published snapshot is not
// advanced (the new vertices appear in the snapshot after the next
// completed batch).
func (e *Engine) Grow(n int) {
	if n <= e.n {
		return
	}
	if cap(e.parent) >= n {
		e.parent = e.parent[:n]
	} else {
		parent := make([]int32, n)
		copy(parent, e.parent)
		e.parent = parent
	}
	for v := e.n; v < n; v++ {
		e.parent[v] = int32(v)
	}
	e.n = n
}

// Workers returns the resolved worker count of the batch pool.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Grain returns the configured claim grain (0 = adaptive).
func (e *Engine) Grain() int { return e.grain }

// N returns the vertex count.
//
//pramcc:zeroalloc
func (e *Engine) N() int { return e.n }

// Close releases the worker pool. The engine's snapshot remains
// queryable; further writer calls are invalid.
func (e *Engine) Close() { e.pool.Close() }

// Snapshot returns the labeling as of the last completed batch.
//
//pramcc:zeroalloc
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// AddGraphContext ingests every edge of g as one batch, with the
// cancellation semantics of AddSpanContext. g must have the same
// vertex count as the engine. It rides the span path with no
// validation pass: the graph's own construction already guarantees
// its endpoints.
func (e *Engine) AddGraphContext(ctx context.Context, g *graph.Graph) (*Snapshot, error) {
	if g.N != e.n {
		panic("incremental: graph vertex count mismatch")
	}
	if err := e.ingestSpan(ctx, g.Span()); err != nil {
		return nil, err
	}
	return e.publish(int64(g.NumEdges())), nil
}

// AddSpan ingests one batch given as a columnar arc-pair span and
// publishes a new snapshot. The span's columns are sharded over the
// worker pool as-is, so a batch sliced from a Graph (SpanBatches), a
// loader span, or graph.FromPairs output reaches the union-find with
// no copy, no boxing, and no per-edge allocation. A span with an
// even-arc endpoint outside [0, n) is rejected whole — the error
// names the offending edge and nothing is applied.
func (e *Engine) AddSpan(span graph.EdgeSpan) (*Snapshot, error) {
	return e.AddSpanContext(context.Background(), span)
}

// AddSpanContext is AddSpan with cancellation: ctx is checked before
// any work and at every chunk boundary of the sharded ingest. On
// cancellation no snapshot is published and ctx.Err() is returned —
// queries keep observing the last completed batch, never a partial
// one. The cancelled batch may have been partially unioned into the
// (unpublished) forest; because unions are idempotent, re-submitting
// the same span yields exactly the labeling the uncancelled call
// would have produced.
func (e *Engine) AddSpanContext(ctx context.Context, span graph.EdgeSpan) (*Snapshot, error) {
	if err := e.validateSpan(span); err != nil {
		return nil, err
	}
	if err := e.ingestSpan(ctx, span); err != nil {
		return nil, err
	}
	return e.publish(int64(span.Len())), nil
}

// validateSpan rejects spans the forest cannot absorb: mismatched or
// odd columns, and even-arc endpoints outside [0, n). Mirror arcs are
// not consulted — ingest reads only the even arcs, exactly as the
// graph path does — so their consistency is the caller's contract,
// not a correctness requirement here.
func (e *Engine) validateSpan(span graph.EdgeSpan) error {
	if len(span.U) != len(span.V) {
		return fmt.Errorf("incremental: span columns have different lengths %d, %d", len(span.U), len(span.V))
	}
	if len(span.U)%2 != 0 {
		return fmt.Errorf("incremental: span has odd arc count %d, arcs must come in mirror pairs", len(span.U))
	}
	n := uint32(e.n)
	for i := 0; i < len(span.U); i += 2 {
		if uint32(span.U[i]) >= n || uint32(span.V[i]) >= n {
			return fmt.Errorf("incremental: span edge %d = {%d,%d} out of range [0,%d)", i/2, span.U[i], span.V[i], e.n)
		}
	}
	return nil
}

// ingestSpan is the engine's one sharded union loop: it shards the
// span's edge range over the scheduler through the pre-bound
// spanChunk, so a steady-state batch performs zero allocations
// between validation and publish. Writer-only.
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
	e.spanU, e.spanV = span.U, span.V
	e.spanCtx = ctx
	e.pool.Sharded(span.Len(), e.grain, e.spanChunk)
	e.spanU, e.spanV, e.spanCtx = nil, nil, nil
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
// map) is built only under an attached sink — this function runs
// inside the region TestSpanIngestZeroAlloc holds at zero allocations.
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

// spanChunkBody unions the even arcs of one claimed edge chunk
// straight out of the span columns. The ctx check per chunk is the
// cancellation contract: returning false stops this worker's claim
// loop, and the other workers observe the same ctx on their own next
// chunk.
//
//pramcc:zeroalloc
func (e *Engine) spanChunkBody(_, lo, hi int) bool {
	if e.spanCtx.Err() != nil {
		return false
	}
	parent, u, v := e.parent, e.spanU, e.spanV
	for i := lo; i < hi; i++ {
		uf.Link(parent, u[2*i], v[2*i])
	}
	return true
}

// publish flattens the forest into a fresh snapshot. It runs after the
// ingest barrier, so every tree is stable: finds during the flatten
// only compress paths, never change roots. The labels slice and the
// Snapshot itself are the only allocations of a whole batch on the
// span path — inherent to immutable snapshot publication, since
// earlier snapshots stay queryable forever. The labels come unzeroed
// from wire.Column: the flatten sweeps all n vertices and writes each
// label once before the snapshot is stored.
func (e *Engine) publish(edges int64) *Snapshot {
	e.batches++
	e.edges += edges
	labels := wire.Column(e.n)
	e.pubLabels = labels
	e.pubRoots.Store(0)
	e.pool.Sharded(e.n, e.grain, e.pubChunk)
	e.pubLabels = nil
	s := &Snapshot{
		Labels:     labels,
		Components: int(e.pubRoots.Load()),
		Batches:    e.batches,
		Edges:      e.edges,
	}
	e.snap.Store(s)
	return s
}

// pubChunkBody flattens one claimed vertex chunk: resolve each
// vertex's root into the labels being published and count the roots
// seen.
//
//pramcc:zeroalloc
func (e *Engine) pubChunkBody(_, lo, hi int) bool {
	parent, labels := e.parent, e.pubLabels
	local := int64(0)
	for v := lo; v < hi; v++ {
		r := uf.Find(parent, int32(v))
		labels[v] = r
		if r == int32(v) {
			local++
		}
	}
	if local != 0 {
		e.pubRoots.Add(local)
	}
	return true
}
