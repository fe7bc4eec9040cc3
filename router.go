package pramcc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/graph"
	"repro/internal/shard"
)

// Router errors, re-exported from the shard layer so callers match
// them without importing an internal package. ErrOverloaded and
// ErrTenantBacklog are retryable pressure (HTTP 429); ErrVertexQuota
// means the request can never succeed under the tenant's quota (422).
var (
	ErrOverloaded    = shard.ErrOverloaded
	ErrTenantBacklog = shard.ErrTenantBacklog
	ErrVertexQuota   = shard.ErrVertexQuota
	ErrUnknownTenant = shard.ErrUnknownTenant
	ErrTenantExists  = shard.ErrTenantExists
	ErrRouterClosed  = shard.ErrClosed
)

// ValidTenantID reports whether id is usable as a tenant id: 1–64
// characters of [a-zA-Z0-9._-], starting alphanumeric — safe to embed
// in durable subdirectory paths and metric label values.
func ValidTenantID(id string) bool { return shard.ValidTenantID(id) }

// RouterConfig sizes a Router. The zero value selects one shard,
// default queue bounds, no vertex quota, and in-memory tenants.
type RouterConfig struct {
	// Shards is the number of independent ingest queues and worker
	// goroutines tenants are hashed onto. < 1 selects 1.
	Shards int
	// QueueCap bounds each shard's ingest queue in spans; pushes
	// beyond it fail with ErrOverloaded. < 1 selects the default (256).
	QueueCap int
	// TenantQueueCap bounds how many spans one tenant may hold queued
	// at once (ErrTenantBacklog beyond it). < 1 selects the default (32).
	TenantQueueCap int
	// MaxVertices caps each tenant's vertex count; CreateTenant and
	// Grow beyond it fail with ErrVertexQuota. 0 means unlimited.
	MaxVertices int
	// CoalesceLimit is the most queued spans one worker pass merges
	// into a single engine batch. 1 disables coalescing; < 1 selects
	// the default (16).
	CoalesceLimit int
	// DataDir, when non-empty, persists every tenant under
	// DataDir/t/<tenant> and recovers all existing tenants on
	// NewRouter (warm restart). Empty keeps tenants in memory only.
	DataDir string
	// Options are passed to every per-tenant NewService/Open call:
	// WithWorkers, WithCheckpointEvery, and friends. Backends must
	// support streaming ingest; leave WithBackend unset to take the
	// incremental default.
	Options []Option
}

// Router is the sharded multi-tenant front end over per-tenant
// Services: tenant ids hash onto shards, each shard serializes its
// tenants' writes through one bounded queue and worker, and queries
// read each tenant's lock-free snapshot directly. See the package
// documentation's "Sharded service" section and internal/shard for
// the backpressure, quota, and span-coalescing semantics.
type Router struct {
	rt  *shard.Router
	cfg RouterConfig
}

// NewRouter builds a sharded tenant router. With cfg.DataDir set it
// also recovers every tenant already persisted under DataDir/t —
// tenants come back on the same shard (the hash is deterministic)
// with their durable labeling, so a warm restart needs no re-ingest.
func NewRouter(cfg RouterConfig) (*Router, error) {
	scfg := shard.Config{
		Shards:         cfg.Shards,
		QueueCap:       cfg.QueueCap,
		TenantQueueCap: cfg.TenantQueueCap,
		MaxVertices:    cfg.MaxVertices,
		CoalesceLimit:  cfg.CoalesceLimit,
	}
	if cfg.DataDir == "" {
		scfg.NewService = func(_ string, n int) (shard.Service, error) {
			// Streaming ingest and Grow need the incremental backend;
			// explicit WithBackend in cfg.Options still wins (applied
			// later), matching Open's default.
			sv, err := NewService(n, append([]Option{WithBackend(BackendIncremental)}, cfg.Options...)...)
			if err != nil {
				return nil, err
			}
			return routedService{sv}, nil
		}
	} else {
		scfg.NewService = func(tenant string, n int) (shard.Service, error) {
			dir := filepath.Join(cfg.DataDir, "t", tenant)
			sv, err := Open(dir, append([]Option{WithInitialVertices(n)}, cfg.Options...)...)
			if err != nil {
				return nil, err
			}
			return routedService{sv}, nil
		}
	}
	rt, err := shard.New(scfg)
	if err != nil {
		return nil, err
	}
	r := &Router{rt: rt, cfg: cfg}
	if cfg.DataDir != "" {
		if err := r.recover(); err != nil {
			rt.Close()
			return nil, err
		}
	}
	return r, nil
}

// recover re-creates every tenant persisted under DataDir/t. Each
// tenant is created with n=0: Open ignores the initial vertex count
// when a durable store exists, so the recovered labeling decides the
// real N — and a tenant persisted under an older, larger quota still
// comes back (only further Grow calls are quota-checked). Tenants are
// opened concurrently, one goroutine per shard opening that shard's
// tenants in id order, so at most one open is in flight per shard and
// recovery takes about the longest shard's opens rather than the sum.
// After a failure no further open starts, the error names the tenant
// whose open failed, and NewRouter's Close then closes every tenant
// that did open.
func (r *Router) recover() error {
	entries, err := os.ReadDir(filepath.Join(r.cfg.DataDir, "t"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	// os.ReadDir sorts by name, so each shard's list is in id order.
	byShard := make([][]string, r.rt.Shards())
	for _, e := range entries {
		if e.IsDir() && shard.ValidTenantID(e.Name()) {
			i := r.rt.ShardOf(e.Name())
			byShard[i] = append(byShard[i], e.Name())
		}
	}
	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		once   sync.Once
		failed error
	)
	for _, names := range byShard {
		wg.Add(1)
		go func(names []string) {
			defer wg.Done()
			for _, name := range names {
				if stop.Load() {
					return
				}
				if _, err := r.rt.CreateTenant(name, 0); err != nil {
					once.Do(func() {
						stop.Store(true)
						failed = fmt.Errorf("pramcc: recovering tenant %q: %w", name, err)
					})
					return
				}
			}
		}(names)
	}
	wg.Wait()
	return failed
}

// routedService adapts *Service to the shard layer's interface: the
// only mismatch is IngestSpan, which returns a full *Result here but
// just the published component count there.
type routedService struct{ *Service }

func (s routedService) IngestSpan(ctx context.Context, span graph.EdgeSpan) (int, error) {
	res, err := s.Service.IngestSpan(ctx, span)
	if err != nil {
		return 0, err
	}
	return res.NumComponents, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.rt.Shards() }

// ShardOf returns the shard index a tenant id maps to.
func (r *Router) ShardOf(id string) int { return r.rt.ShardOf(id) }

// CreateTenant creates a tenant with n initial isolated vertices; on
// a durable router its store is created under DataDir/t/<id>.
func (r *Router) CreateTenant(id string, n int) (*Tenant, error) {
	t, err := r.rt.CreateTenant(id, n)
	if err != nil {
		return nil, err
	}
	return &Tenant{t: t}, nil
}

// Tenant looks up a tenant by id.
func (r *Router) Tenant(id string) (*Tenant, error) {
	t, ok := r.rt.Tenant(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	return &Tenant{t: t}, nil
}

// Tenants returns every tenant, sorted by id.
func (r *Router) Tenants() []*Tenant {
	ts := r.rt.Tenants()
	out := make([]*Tenant, len(ts))
	for i, t := range ts {
		out[i] = &Tenant{t: t}
	}
	return out
}

// Close stops accepting writes, drains accepted queued spans, stops
// the shard workers, and closes every tenant service. Idempotent.
func (r *Router) Close() { r.rt.Close() }

// Tenant is one tenant's handle on a Router: ingest goes through the
// tenant's shard queue (coalescing with queue neighbours), queries
// read the tenant's published snapshot lock-free.
type Tenant struct {
	t *shard.Tenant
}

// ID returns the tenant id.
func (t *Tenant) ID() string { return t.t.ID() }

// Shard returns the shard index the tenant is routed to.
func (t *Tenant) Shard() int { return t.t.Shard() }

// IngestSpan enqueues a validated span on the tenant's shard and
// waits for the shard worker to apply it, returning the published
// component count. Failure modes: ErrOverloaded (shard queue full),
// ErrTenantBacklog (tenant's queued-span quota), validation errors,
// and ctx cancellation — a cancelled wait abandons an already
// accepted span, which is still applied (unions are idempotent).
func (t *Tenant) IngestSpan(ctx context.Context, span graph.EdgeSpan) (components int, err error) {
	return t.t.IngestSpan(ctx, span)
}

// Ingest is IngestSpan over an edge-pair batch: endpoints are
// range-checked as ints before the int32 conversion, exactly like
// Service.Ingest.
func (t *Tenant) Ingest(ctx context.Context, edges [][2]int) (components int, err error) {
	n := t.t.N()
	for i, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return 0, fmt.Errorf("pramcc: tenant %q: batch edge %d = {%d,%d} out of range [0,%d)", t.t.ID(), i, e[0], e[1], n)
		}
	}
	return t.t.IngestSpan(ctx, graph.FromPairs(edges))
}

// Grow extends the tenant's vertex set to n (no-op when n ≤ N),
// enforcing the router's vertex quota.
func (t *Tenant) Grow(n int) error { return t.t.Grow(n) }

// SameComponent answers from the tenant's published snapshot.
func (t *Tenant) SameComponent(v, w int) bool { return t.t.SameComponent(v, w) }

// N returns the tenant's published vertex count.
func (t *Tenant) N() int { return t.t.N() }

// NumComponents returns the tenant's published component count.
func (t *Tenant) NumComponents() int { return t.t.NumComponents() }

// LabelsInto copies the tenant's published labeling into dst,
// reallocating only when dst is too small.
func (t *Tenant) LabelsInto(dst []int32) []int32 { return t.t.LabelsInto(dst) }

// Queued returns the tenant's currently queued span count.
func (t *Tenant) Queued() int { return t.t.Queued() }

// TenantStats is a point-in-time tenant summary.
type TenantStats struct {
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
func (t *Tenant) Stats() TenantStats {
	s := t.t.Stats()
	return TenantStats{
		ID:            s.ID,
		Shard:         s.Shard,
		N:             s.N,
		NumComponents: s.NumComponents,
		Queued:        s.Queued,
		IngestedSpans: s.IngestedSpans,
		IngestedEdges: s.IngestedEdges,
		DurableSeq:    s.DurableSeq,
		Durable:       s.Durable,
	}
}
