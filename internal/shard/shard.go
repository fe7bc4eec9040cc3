// Package shard is the multi-tenant router behind pramcc.Router: it
// hash-maps tenant ids onto N independent per-tenant connectivity
// services and drives each shard's writes through a bounded FIFO queue
// owned by one dedicated worker goroutine. The package enforces the
// three resource disciplines a shared front end needs —
//
//   - backpressure: a full shard queue rejects with ErrOverloaded
//     instead of queueing unboundedly, so ingest memory is capped by
//     shards × queue-cap × batch size;
//   - per-tenant quotas: a tenant may hold at most TenantQueueCap
//     spans in its shard's queue (ErrTenantBacklog) and grow to at
//     most MaxVertices vertices (ErrVertexQuota), so one tenant
//     cannot starve or bloat its shard-mates;
//   - span coalescing: consecutive queued spans for the same tenant
//     merge into one wider span before they hit the engine. EdgeSpan's
//     SoA layout makes the merge a pair of column appends, and the
//     engine's per-batch fixed costs (snapshot flatten, WAL fsync)
//     are then paid once per merged batch instead of once per request
//     — the same merge-adjacent-work-before-the-expensive-step idea as
//     spatio-temporal communication compression in distributed
//     optimization. E16 measures the effect.
//
// Queries never enter the queue: they read the tenant service's
// lock-free published snapshot directly, so a backed-up writer never
// blocks a reader. The package is expressed over the small Service
// interface rather than *pramcc.Service to keep the import direction
// root → internal/shard.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/graph"
	"repro/internal/obs"
)

// Service is the per-tenant connectivity service a Router drives: the
// subset of pramcc.Service the shard workers and the query paths need.
type Service interface {
	// IngestSpan unions one columnar batch into the live labeling and
	// returns the published component count.
	IngestSpan(ctx context.Context, span graph.EdgeSpan) (components int, err error)
	// Grow extends the vertex set to n, preserving components.
	Grow(n int) error
	// SameComponent, N, NumComponents and LabelsInto are the lock-free
	// snapshot queries.
	SameComponent(v, w int) bool
	N() int
	NumComponents() int
	LabelsInto(dst []int32) []int32
	// DurableSeq reports the last durable batch sequence number, and
	// whether the service is persisted at all.
	DurableSeq() (uint64, bool)
	// Close releases the service.
	Close()
}

// Router errors. The HTTP front end maps ErrOverloaded and
// ErrTenantBacklog to 429 (retryable pressure) and ErrVertexQuota to
// 422 (the request can never succeed under the current quota).
var (
	ErrOverloaded    = errors.New("shard: ingest queue full, retry later")
	ErrTenantBacklog = errors.New("shard: tenant queued-span quota exceeded, retry later")
	ErrVertexQuota   = errors.New("shard: tenant vertex quota exceeded")
	ErrUnknownTenant = errors.New("shard: unknown tenant")
	ErrTenantExists  = errors.New("shard: tenant already exists")
	ErrClosed        = errors.New("shard: router is closed")
)

// Defaults for Config fields left zero.
const (
	DefaultQueueCap       = 256
	DefaultTenantQueueCap = 32
	DefaultCoalesceLimit  = 16
)

// Config sizes a Router. The zero value of every field selects a
// sensible default except NewService, which is required.
type Config struct {
	// Shards is the number of independent shard queues and workers
	// tenants are hashed onto. < 1 selects 1.
	Shards int
	// QueueCap bounds each shard's queue in jobs; a push beyond it
	// fails with ErrOverloaded. < 1 selects DefaultQueueCap.
	QueueCap int
	// TenantQueueCap bounds how many spans one tenant may hold queued
	// at once (ErrTenantBacklog beyond it). < 1 selects
	// DefaultTenantQueueCap.
	TenantQueueCap int
	// MaxVertices caps each tenant's vertex count (CreateTenant and
	// Grow fail with ErrVertexQuota beyond it). 0 means unlimited.
	MaxVertices int
	// CoalesceLimit is the most queued spans one worker pass merges
	// into a single engine batch. 1 disables coalescing; < 1 selects
	// DefaultCoalesceLimit.
	CoalesceLimit int
	// NewService builds the per-tenant service when a tenant is
	// created (or recovered): typically pramcc.NewService, or
	// pramcc.Open under a per-tenant subdirectory.
	NewService func(tenant string, n int) (Service, error)
}

// Router hash-routes tenants onto shards and owns the shard workers.
type Router struct {
	cfg    Config
	shards []*shardState

	mu      sync.RWMutex
	tenants map[string]*Tenant
	pending map[string]bool // ids whose service is being built
	closed  bool

	wg sync.WaitGroup
}

// shardState is one shard: its bounded queue, its worker's identity,
// and its cached metric children.
type shardState struct {
	id     int
	q      *queue
	builds *obs.Counter // engine batches this shard's worker ran
}

// New builds a Router and starts one worker goroutine per shard.
func New(cfg Config) (*Router, error) {
	if cfg.NewService == nil {
		return nil, errors.New("shard: Config.NewService is required")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.TenantQueueCap < 1 {
		cfg.TenantQueueCap = DefaultTenantQueueCap
	}
	if cfg.CoalesceLimit < 1 {
		cfg.CoalesceLimit = DefaultCoalesceLimit
	}
	r := &Router{cfg: cfg, tenants: map[string]*Tenant{}, pending: map[string]bool{}}
	mQueueCap.Set(int64(cfg.QueueCap))
	for i := 0; i < cfg.Shards; i++ {
		sh := &shardState{
			id:     i,
			q:      newQueue(cfg.QueueCap, mQueueDepth.With(shardLabel(i))),
			builds: mShardBatches.With(shardLabel(i)),
		}
		r.shards = append(r.shards, sh)
		r.wg.Add(1)
		go r.worker(sh)
	}
	return r, nil
}

// shardLabel renders a shard index as its metric label value.
func shardLabel(i int) string { return fmt.Sprintf("%d", i) }

// ShardOf returns the shard index tenant id maps to: FNV-1a over the
// id, mod the shard count. The mapping is deterministic across
// restarts, so a recovered tenant lands on the same shard.
func (r *Router) ShardOf(id string) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(len(r.shards)))
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// ValidTenantID reports whether id is usable as a tenant id: 1–64
// characters from [a-zA-Z0-9._-], starting alphanumeric. The grammar
// is strict enough to embed ids in paths (durable subdirectories) and
// metric label values without escaping surprises.
func ValidTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// CreateTenant creates tenant id with n initial isolated vertices,
// building its service via Config.NewService and assigning it to its
// hash shard. The id must satisfy ValidTenantID; n beyond MaxVertices
// is rejected up front. The id is reserved while its service is built
// outside the router lock, so creates of different tenants — a durable
// router's recovery opening its stores — run concurrently, and a second
// create of the same id fails with ErrTenantExists.
func (r *Router) CreateTenant(id string, n int) (*Tenant, error) {
	if !ValidTenantID(id) {
		return nil, fmt.Errorf("shard: invalid tenant id %q (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric)", id)
	}
	if n < 0 {
		return nil, fmt.Errorf("shard: negative vertex count %d", n)
	}
	if r.cfg.MaxVertices > 0 && n > r.cfg.MaxVertices {
		mQuotaRejects.Inc()
		return nil, fmt.Errorf("%w: %d > %d vertices", ErrVertexQuota, n, r.cfg.MaxVertices)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := r.tenants[id]; ok || r.pending[id] {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	r.pending[id] = true
	r.mu.Unlock()

	svc, err := r.cfg.NewService(id, n)
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pending, id)
	if err != nil {
		return nil, err
	}
	if r.closed {
		// Close ran while the service was built; it closed every tenant
		// it could see, so this one is closed here.
		svc.Close()
		return nil, ErrClosed
	}
	t := &Tenant{
		id:     id,
		router: r,
		shard:  r.shards[r.ShardOf(id)],
		svc:    svc,
		cSpans: mTenantSpans.With(id),
		cEdges: mTenantEdges.With(id),
	}
	r.tenants[id] = t
	mTenants.Set(int64(len(r.tenants)))
	return t, nil
}

// Tenant returns the tenant with the given id.
func (r *Router) Tenant(id string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Tenants returns every tenant, sorted by id.
func (r *Router) Tenants() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Close stops accepting writes, drains every already-accepted queued
// span (their callers are blocked waiting on them), stops the shard
// workers, and closes every tenant service. Idempotent.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, sh := range r.shards {
		sh.q.close()
	}
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		t.svc.Close()
	}
}

// worker is one shard's dedicated goroutine: it pops runs of queued
// jobs (a run = the head job plus up to CoalesceLimit-1 consecutive
// jobs for the same tenant), merges each run into one span, and
// ingests it into the tenant's service.
func (r *Router) worker(sh *shardState) {
	defer r.wg.Done()
	for {
		run := sh.q.popRun(r.cfg.CoalesceLimit)
		if run == nil {
			return
		}
		r.process(sh, run)
	}
}

// process ingests one coalesced run and completes its jobs. The
// worker's context is Background: a span accepted into the queue has
// been promised to the tenant's labeling (and, on a durable service,
// to its WAL), so a caller abandoning its wait must not cancel the
// union work mid-run for the jobs coalesced around it.
func (r *Router) process(sh *shardState, run []*job) {
	t := run[0].tenant
	span := run[0].span
	if len(run) > 1 {
		span = mergeSpans(run)
		mCoalesceBatches.Inc()
		mCoalesceSpans.Add(int64(len(run) - 1))
	}
	components, err := t.svc.IngestSpan(context.Background(), span)
	if err == nil {
		t.spans.Add(int64(len(run)))
		t.edges.Add(int64(span.Len()))
		t.cSpans.Add(int64(len(run)))
		t.cEdges.Add(int64(span.Len()))
	}
	sh.builds.Inc()
	for _, j := range run {
		j.components, j.err = components, err
		t.queued.Add(-1)
		close(j.done)
	}
}

// mergeSpans concatenates a run's spans into one owned span: two
// column appends per span, no per-edge work beyond the copy — the SoA
// payoff that makes coalescing nearly free relative to the per-batch
// fixed costs it amortizes.
func mergeSpans(run []*job) graph.EdgeSpan {
	arcs := 0
	for _, j := range run {
		arcs += len(j.span.U)
	}
	u := make([]int32, 0, arcs)
	v := make([]int32, 0, arcs)
	for _, j := range run {
		u = append(u, j.span.U...)
		v = append(v, j.span.V...)
	}
	return graph.EdgeSpan{U: u, V: v}
}

// Tenant is one tenant's handle: its service plus its routing and
// accounting state.
type Tenant struct {
	id     string
	router *Router
	shard  *shardState
	svc    Service
	queued atomic.Int64 // spans currently queued on the shard
	spans  atomic.Int64 // spans ingested (this handle's own view)
	edges  atomic.Int64 // edges ingested

	cSpans *obs.Counter // process-wide per-tenant metric children
	cEdges *obs.Counter
}

// ID returns the tenant id.
func (t *Tenant) ID() string { return t.id }

// Shard returns the shard index the tenant is routed to.
func (t *Tenant) Shard() int { return t.shard.id }

// Service exposes the underlying per-tenant service (for queries that
// need more than the Tenant surface, e.g. label dumps).
func (t *Tenant) Service() Service { return t.svc }

// job is one queued ingest: a validated span waiting for the shard
// worker, and the completion the submitting caller blocks on.
type job struct {
	tenant     *Tenant
	span       graph.EdgeSpan
	done       chan struct{}
	components int
	err        error
}

// IngestSpan validates span against the tenant's current vertex set,
// enqueues it on the tenant's shard, and waits for the shard worker to
// apply it (possibly coalesced with its queue neighbours), returning
// the published component count. Backpressure and quota failures
// (ErrOverloaded, ErrTenantBacklog) reject before any queueing. A
// cancelled ctx abandons the wait with ctx.Err() — but an accepted
// span is still applied; unions are idempotent, so re-submitting after
// a cancellation cannot corrupt the labeling.
//
// Validation happens here, at enqueue, against the tenant's current N:
// since the vertex set only grows, a span valid now is valid when the
// worker reaches it, and a malformed span can never poison the spans
// it would be coalesced with.
func (t *Tenant) IngestSpan(ctx context.Context, span graph.EdgeSpan) (components int, err error) {
	if err := span.Validate(t.svc.N()); err != nil {
		return 0, err
	}
	if t.queued.Add(1) > int64(t.router.cfg.TenantQueueCap) {
		t.queued.Add(-1)
		mBacklogRejects.Inc()
		return 0, fmt.Errorf("%w (tenant %q, cap %d)", ErrTenantBacklog, t.id, t.router.cfg.TenantQueueCap)
	}
	j := &job{tenant: t, span: span, done: make(chan struct{})}
	if err := t.shard.q.push(j); err != nil {
		t.queued.Add(-1)
		if errors.Is(err, ErrOverloaded) {
			mOverloadRejects.Inc()
		}
		return 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j.components, j.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Grow extends the tenant's vertex set to n (no-op when n ≤ N),
// enforcing the vertex quota.
func (t *Tenant) Grow(n int) error {
	if t.router.cfg.MaxVertices > 0 && n > t.router.cfg.MaxVertices {
		mQuotaRejects.Inc()
		return fmt.Errorf("%w: %d > %d vertices", ErrVertexQuota, n, t.router.cfg.MaxVertices)
	}
	return t.svc.Grow(n)
}

// SameComponent answers from the tenant's published snapshot,
// lock-free, never entering the ingest queue.
func (t *Tenant) SameComponent(v, w int) bool { return t.svc.SameComponent(v, w) }

// N returns the tenant's published vertex count.
func (t *Tenant) N() int { return t.svc.N() }

// NumComponents returns the tenant's published component count.
func (t *Tenant) NumComponents() int { return t.svc.NumComponents() }

// LabelsInto copies the tenant's published labeling into dst (see
// pramcc.Service.LabelsInto).
func (t *Tenant) LabelsInto(dst []int32) []int32 { return t.svc.LabelsInto(dst) }

// Queued returns the tenant's currently queued span count.
func (t *Tenant) Queued() int { return int(t.queued.Load()) }

// Stats is a point-in-time tenant summary for listings and the stats
// endpoint.
type Stats struct {
	ID            string
	Shard         int
	N             int
	NumComponents int
	Queued        int
	IngestedSpans int64
	IngestedEdges int64
	DurableSeq    uint64
	Durable       bool
}

// Stats snapshots the tenant.
func (t *Tenant) Stats() Stats {
	s := Stats{
		ID:            t.id,
		Shard:         t.shard.id,
		N:             t.svc.N(),
		NumComponents: t.svc.NumComponents(),
		Queued:        t.Queued(),
		IngestedSpans: t.spans.Load(),
		IngestedEdges: t.edges.Load(),
	}
	s.DurableSeq, s.Durable = t.svc.DurableSeq()
	return s
}
