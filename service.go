package pramcc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/durable"
	"repro/internal/wire"
)

// Service is the serving layer over a Solver: a connectivity service
// that answers SameComponent/Labels/NumComponents queries lock-free
// and concurrently — from an atomically published immutable snapshot —
// while a recompute (Update) or a streaming batch (Ingest) is in
// flight. This holds on every registered backend: queries never block
// on writers and never observe a half-built labeling; a snapshot is
// replaced only by a complete successor. With BackendIncremental the
// Service is also the streaming handle: each IngestSpan/Ingest batch
// is unioned into the live labeling, and the Result it returns
// describes the batch (NumComponents after it; Stats.Wall, its ingest
// time; Stats.Rounds, the engine's batch count since its last reset).
//
// Writers (Update, Ingest, IngestSpan, Grow, Close) serialize on an
// internal mutex, so they may be called from several goroutines, and
// Close may race an in-flight batch. A cancelled or failed
// Update/Ingest leaves the published snapshot untouched, so queries
// stay consistent across a cancelled solve.
type Service struct {
	mu     sync.Mutex
	solver *Solver
	snap   atomic.Pointer[Result]
	closed bool

	// Durability (nil/zero on a plain in-memory service). store is the
	// snapshot+WAL store every accepted batch is logged to before its
	// snapshot publishes; ckptEvery is the checkpoint cadence in logged
	// batches; recovery describes the warm start that produced this
	// service, when there was one. All three are set once — by Open or
	// Persist — under mu and never change afterwards.
	store     *durable.Store
	ckptEvery int
	recovery  *RecoveryStats
}

// NewService builds a Service over n isolated vertices (the initial
// snapshot: every vertex its own component) with the same options as
// NewSolver. With BackendIncremental the service additionally supports
// streaming Ingest batches on top of the live labeling.
func NewService(n int, opts ...Option) (*Service, error) {
	if n < 0 {
		return nil, fmt.Errorf("pramcc: negative vertex count %d", n)
	}
	solver, err := NewSolver(opts...)
	if err != nil {
		return nil, err
	}
	sv := &Service{solver: solver}
	// A streaming engine publishes an identity labeling of its own;
	// the service shares it, as it shares every later engine snapshot.
	var labels []int32
	if st, ok := solver.eng.(streamEngine); ok {
		labels = st.reset(n)
	} else {
		labels = grownLabels(nil, n)
	}
	sv.publish(&Result{
		Labels:        labels,
		NumComponents: n,
		Stats:         Stats{Backend: solver.cfg.backend},
	})
	return sv, nil
}

// publish stores r as the served snapshot and records the publication
// on the serving metrics (snapshot sequence, size, age).
func (sv *Service) publish(r *Result) {
	sv.snap.Store(r)
	notePublish(r)
}

// Update recomputes the labeling of g on the service's backend and
// publishes it as the new snapshot, replacing the vertex set with
// g's. The returned Result is the published snapshot itself: immutable
// and valid forever. On error — including ctx cancellation, checked at
// round/batch boundaries — nothing is published and the previous
// snapshot keeps serving queries.
func (sv *Service) Update(ctx context.Context, g *graph.Graph) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, ErrSolverClosed
	}
	start := time.Now()
	// The solve runs in the Solver's own label buffer and leaves a
	// streaming engine's live forest alone, so a cancelled or failed
	// solve changes nothing that queries or the next Ingest see.
	res, err := sv.solver.Solve(ctx, g)
	if err != nil {
		mUpdateErrors.Inc()
		if obsEnabled() {
			emitService("update", statusOf(err), time.Since(start),
				map[string]float64{"n": float64(g.N), "edges": float64(g.NumEdges())})
		}
		return nil, err
	}
	pub := &Result{
		Labels:        append([]int32(nil), res.Labels...),
		NumComponents: res.NumComponents,
		Stats:         res.Stats,
	}
	if sv.store != nil {
		// A full rebuild replaces the labeling wholesale, so it must be
		// checkpointed before it publishes — there is no batch record
		// that could reproduce it on replay. It consumes a sequence
		// number of its own (Seq+1) so recovery never replays a
		// pre-rebuild WAL record on top of the rebuilt snapshot.
		if err := sv.store.Checkpoint(pub.Labels, sv.store.Seq()+1); err != nil {
			mUpdateErrors.Inc()
			if obsEnabled() {
				emitService("update", statusOf(err), time.Since(start),
					map[string]float64{"n": float64(g.N), "edges": float64(g.NumEdges())})
			}
			return nil, err
		}
	}
	if st, ok := sv.solver.eng.(streamEngine); ok {
		// Later Ingests continue from the new labeling.
		st.restore(pub.Labels)
	}
	sv.publish(pub)
	mUpdates.Inc()
	mUpdateDur.Observe(res.Stats.Wall.Seconds())
	if obsEnabled() {
		emitService("update", statusOf(nil), res.Stats.Wall, map[string]float64{
			"n":          float64(g.N),
			"edges":      float64(g.NumEdges()),
			"components": float64(pub.NumComponents),
			"rounds":     float64(pub.Stats.Rounds),
		})
	}
	return pub, nil
}

// Ingest unions one batch of undirected edges into the live labeling
// and publishes the result — the streaming path, available when the
// service's backend maintains a live labeling (BackendIncremental).
// Endpoints must lie in [0, N()); use Grow to extend the vertex set
// first. On a cancelled ctx no snapshot is published; because unions
// are idempotent, re-submitting the same batch completes the cancelled
// one exactly.
//
// Ingest is the [][2]int adapter over IngestSpan: the batch is
// validated and converted to a columnar span (one Θ(batch) copy)
// before entering the zero-copy pipeline. Callers replaying edges
// that already live in a Graph or a loader span should call
// IngestSpan and skip the conversion entirely.
func (sv *Service) Ingest(ctx context.Context, edges [][2]int) (*Result, error) {
	// Validate as ints before the int32 conversion narrows them: an
	// endpoint beyond int32 must be rejected here, not truncated into
	// an accidentally-valid vertex.
	n := sv.N()
	for i, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return nil, fmt.Errorf("pramcc: incremental: batch edge %d = {%d,%d} out of range [0,%d)", i, e[0], e[1], n)
		}
	}
	return sv.IngestSpan(ctx, graph.FromPairs(edges))
}

// IngestSpan is the zero-copy form of Ingest: the batch arrives as a
// columnar arc-pair span (graph.EdgeSpan — typically a SpanBatches
// slice of a Graph, a loader span, or FromPairs output) and is
// sharded over the engine's worker pool directly from its columns.
// Nothing is copied or boxed between here and the union-find, so
// replaying a resident graph through the service allocates only the
// published snapshots. Semantics are exactly Ingest's: whole-batch
// validation, snapshot-consistent publication, idempotent completion
// after cancellation.
func (sv *Service) IngestSpan(ctx context.Context, span graph.EdgeSpan) (*Result, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, ErrSolverClosed
	}
	st, ok := sv.solver.eng.(streamEngine)
	if !ok {
		mIngestErrors.Inc()
		return nil, fmt.Errorf("pramcc: backend %v does not support streaming ingest (use Update, or build the Service with BackendIncremental)", sv.solver.cfg.backend)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		mIngestErrors.Inc()
		return nil, err
	}
	start := time.Now()
	var out solveOutput
	components, err := st.ingest(ctx, span, &out)
	if err == nil && sv.store != nil {
		// Durability barrier: the batch must be in the WAL (fsynced)
		// before its snapshot publishes, so an acknowledged labeling can
		// always be reconstructed. Checkpoint on the same boundary when
		// the cadence is due — the labeling is already in hand.
		if _, lerr := sv.store.LogSpan(span); lerr != nil {
			err = lerr
		} else if sv.store.BatchesSinceCheckpoint() >= sv.ckptEvery {
			err = sv.store.Checkpoint(out.labels, sv.store.Seq())
		}
	}
	if err != nil {
		if sv.store != nil {
			// The batch may be half-applied (a cancelled ingest) or
			// applied but unlogged (a WAL failure). Either way the live
			// forest must snap back to the published labeling: unions
			// that never reached the WAL must not ride along under a
			// later batch's snapshot, or replay would lose them.
			st.restore(sv.snap.Load().Labels)
		}
		mIngestErrors.Inc()
		if obsEnabled() {
			emitService("ingest_span", statusOf(err), time.Since(start),
				map[string]float64{"edges": float64(span.Len())})
		}
		return nil, err
	}
	out.stats.Wall = time.Since(start)
	pub := &Result{
		Labels:        out.labels,
		NumComponents: components,
		Stats:         out.stats,
	}
	sv.publish(pub)
	mIngestSpans.Inc()
	mIngestEdges.Add(int64(span.Len()))
	mIngestDur.Observe(out.stats.Wall.Seconds())
	if s := out.stats.Wall.Seconds(); s > 0 {
		mIngestRate.Set(int64(float64(span.Len()) / s))
	}
	if obsEnabled() {
		emitService("ingest_span", statusOf(nil), out.stats.Wall, map[string]float64{
			"edges":      float64(span.Len()),
			"components": float64(components),
		})
	}
	return pub, nil
}

// Grow extends the vertex set to n isolated new vertices, preserving
// every component, and publishes the widened snapshot. Streaming
// backends only; a no-op when n ≤ N().
func (sv *Service) Grow(n int) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return ErrSolverClosed
	}
	st, ok := sv.solver.eng.(streamEngine)
	if !ok {
		return fmt.Errorf("pramcc: backend %v does not support Grow (the vertex set is defined by Update)", sv.solver.cfg.backend)
	}
	cur := sv.snap.Load()
	if n <= len(cur.Labels) {
		return nil
	}
	if sv.store != nil {
		// Logged before the engine widens: a grow that fails to reach
		// the WAL must not change what queries (or replay) can see.
		if _, err := sv.store.LogGrow(n); err != nil {
			return err
		}
	}
	st.grow(n)
	pub := &Result{
		Labels:        grownLabels(cur.Labels, n),
		NumComponents: cur.NumComponents + n - len(cur.Labels),
		Stats:         cur.Stats,
	}
	sv.publish(pub)
	if obsEnabled() {
		emitService("grow", statusOf(nil), 0, map[string]float64{
			"n":     float64(n),
			"added": float64(n - len(cur.Labels)),
		})
	}
	return nil
}

// grownLabels returns cur widened to n labels, each new vertex its own
// component: the labeling a Grow (live or replayed) publishes, and from
// an empty cur a new Service's identity labeling.
func grownLabels(cur []int32, n int) []int32 {
	labels := wire.Column(n)
	copy(labels, cur)
	for v := len(cur); v < n; v++ {
		labels[v] = int32(v)
	}
	return labels
}

// Snapshot returns the currently published labeling: an immutable
// Result that stays valid (and queryable) forever, even across later
// Updates and Close. Callers must not modify it.
//
//pramcc:zeroalloc
func (sv *Service) Snapshot() *Result { return sv.snap.Load() }

// SameComponent reports whether v and w are in the same component of
// the published snapshot. Out-of-range vertices are in no component
// (false, except v == w). Safe to call concurrently with writers.
//
//pramcc:zeroalloc
func (sv *Service) SameComponent(v, w int) bool {
	if v == w {
		return true
	}
	r := sv.snap.Load()
	if v < 0 || w < 0 || v >= len(r.Labels) || w >= len(r.Labels) {
		return false
	}
	return r.Labels[v] == r.Labels[w]
}

// NumComponents returns the component count of the published snapshot.
//
//pramcc:zeroalloc
func (sv *Service) NumComponents() int { return sv.snap.Load().NumComponents }

// N returns the vertex count of the published snapshot.
//
//pramcc:zeroalloc
func (sv *Service) N() int { return len(sv.snap.Load().Labels) }

// Labels returns a copy of the published labeling.
func (sv *Service) Labels() []int32 {
	return append([]int32(nil), sv.snap.Load().Labels...)
}

// LabelsInto copies the published labeling into dst, growing it only
// when its capacity is short, and returns the filled slice — the
// zero-allocation form of Labels for callers polling the labeling on
// a hot path: pass the previous call's return value back in and
// steady state copies into the same buffer. The copy is
// snapshot-consistent (one atomic snapshot read, then a plain copy —
// never a half-published labeling) and, like every query, safe to
// call concurrently with writers. A nil dst simply allocates, making
// LabelsInto(nil) equivalent to Labels.
//
//pramcc:zeroalloc
func (sv *Service) LabelsInto(dst []int32) []int32 {
	return labelsInto(dst, sv.snap.Load().Labels)
}

// Backend returns the execution backend behind the service.
func (sv *Service) Backend() Backend { return sv.solver.Backend() }

// Close releases the underlying Solver. Idempotent. Queries keep
// serving the last published snapshot; writers return ErrSolverClosed.
func (sv *Service) Close() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if !sv.closed {
		sv.closed = true
		sv.solver.Close()
		if sv.store != nil {
			sv.store.Close()
		}
	}
}
