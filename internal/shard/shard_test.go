package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/graph"
)

// fakeSvc is a sequential union-find standing in for pramcc.Service:
// enough to check routing, quotas, coalescing, and ordering without
// the real engines. The entered/gate pair makes worker progress
// observable and controllable: when both are set, IngestSpan announces
// itself on entered (buffered, never blocks) and then stalls until the
// test feeds gate a token (or closes it), which is how tests pin one
// batch in flight while piling spans up behind it deterministically.
type fakeSvc struct {
	mu      sync.Mutex
	parent  []int32
	calls   int // IngestSpan invocations (post-coalescing batches)
	fail    error
	entered chan struct{}
	gate    chan struct{}
}

func newFakeSvc(n int) *fakeSvc {
	s := &fakeSvc{parent: make([]int32, n)}
	for i := range s.parent {
		s.parent[i] = int32(i)
	}
	return s
}

func (s *fakeSvc) find(v int32) int32 {
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]]
		v = s.parent[v]
	}
	return v
}

func (s *fakeSvc) IngestSpan(ctx context.Context, span graph.EdgeSpan) (int, error) {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return 0, s.fail
	}
	s.calls++
	for i := 0; i < span.Len(); i++ {
		u, v := span.Edge(i)
		ru, rv := s.find(u), s.find(v)
		if ru != rv {
			if ru > rv {
				ru, rv = rv, ru
			}
			s.parent[rv] = ru
		}
	}
	return s.components(), nil
}

// components counts roots. Callers hold mu.
func (s *fakeSvc) components() int {
	c := 0
	for i := range s.parent {
		if s.find(int32(i)) == int32(i) {
			c++
		}
	}
	return c
}

func (s *fakeSvc) Grow(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.parent) < n {
		s.parent = append(s.parent, int32(len(s.parent)))
	}
	return nil
}

func (s *fakeSvc) SameComponent(v, w int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v == w {
		return true
	}
	if v < 0 || w < 0 || v >= len(s.parent) || w >= len(s.parent) {
		return false
	}
	return s.find(int32(v)) == s.find(int32(w))
}

func (s *fakeSvc) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parent)
}

func (s *fakeSvc) NumComponents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.components()
}

func (s *fakeSvc) LabelsInto(dst []int32) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap(dst) < len(s.parent) {
		dst = make([]int32, len(s.parent))
	}
	dst = dst[:len(s.parent)]
	for i := range s.parent {
		dst[i] = s.find(int32(i))
	}
	return dst
}

func (s *fakeSvc) DurableSeq() (uint64, bool) { return 0, false }
func (s *fakeSvc) Close()                     {}

func (s *fakeSvc) ingestCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *fakeSvc) setFail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail = err
}

// gatedSvc builds a fakeSvc whose IngestSpan handshakes with the test.
func gatedSvc(n int) *fakeSvc {
	s := newFakeSvc(n)
	s.entered = make(chan struct{}, 64)
	s.gate = make(chan struct{})
	return s
}

// newTestRouter builds a router creating a fresh ungated fakeSvc per
// tenant, closed on cleanup.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.NewService == nil {
		cfg.NewService = func(tenant string, n int) (Service, error) {
			return newFakeSvc(n), nil
		}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func pairsSpan(edges ...[2]int) graph.EdgeSpan { return graph.FromPairs(edges) }

// waitQueued polls until the tenant's accepted-but-uncompleted span
// count reaches want.
func waitQueued(t *testing.T, tn *Tenant, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tn.Queued() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", tn.Queued(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestValidTenantID(t *testing.T) {
	for _, ok := range []string{"a", "acme", "Acme-1", "t.0_x", "0abc"} {
		if !ValidTenantID(ok) {
			t.Errorf("ValidTenantID(%q) = false, want true", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "-x", "_x", "a/b", "a b", "a\x00b", string(long), "tenant\n"} {
		if ValidTenantID(bad) {
			t.Errorf("ValidTenantID(%q) = true, want false", bad)
		}
	}
}

func TestCreateTenantAndRouting(t *testing.T) {
	r := newTestRouter(t, Config{Shards: 4})
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, id := range ids {
		tn, err := r.CreateTenant(id, 10)
		if err != nil {
			t.Fatalf("CreateTenant(%s): %v", id, err)
		}
		if tn.Shard() != r.ShardOf(id) {
			t.Errorf("tenant %s on shard %d, ShardOf says %d", id, tn.Shard(), r.ShardOf(id))
		}
		if tn.Shard() < 0 || tn.Shard() >= 4 {
			t.Errorf("tenant %s on out-of-range shard %d", id, tn.Shard())
		}
	}
	if _, err := r.CreateTenant("a", 10); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate create: %v, want ErrTenantExists", err)
	}
	if _, err := r.CreateTenant("bad/id", 10); err == nil {
		t.Error("invalid id accepted")
	}
	if _, ok := r.Tenant("a"); !ok {
		t.Error("lookup of existing tenant failed")
	}
	if _, ok := r.Tenant("ghost"); ok {
		t.Error("lookup of unknown tenant succeeded")
	}
	ts := r.Tenants()
	if len(ts) != len(ids) {
		t.Errorf("Tenants() returned %d, want %d", len(ts), len(ids))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1].ID() >= ts[i].ID() {
			t.Errorf("Tenants() not sorted: %s before %s", ts[i-1].ID(), ts[i].ID())
		}
	}
}

func TestIngestAndQueries(t *testing.T) {
	r := newTestRouter(t, Config{Shards: 2})
	tn, err := r.CreateTenant("acme", 6)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{0, 1}, [2]int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if comps != 4 {
		t.Errorf("components = %d, want 4", comps)
	}
	if !tn.SameComponent(0, 2) || tn.SameComponent(0, 3) {
		t.Error("connectivity wrong after ingest")
	}
	st := tn.Stats()
	if st.IngestedSpans != 1 || st.IngestedEdges != 2 || st.N != 6 || st.NumComponents != 4 || st.Queued != 0 {
		t.Errorf("stats = %+v", st)
	}
	labels := tn.LabelsInto(nil)
	if len(labels) != 6 || labels[0] != labels[2] || labels[0] == labels[3] {
		t.Errorf("labels = %v", labels)
	}
	// Out-of-range span rejected at enqueue, before any queueing.
	if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{0, 99})); err == nil {
		t.Error("out-of-range span accepted")
	}
}

func TestCoalescingMergesAdjacentSameTenant(t *testing.T) {
	svc := gatedSvc(16)
	r, err := New(Config{Shards: 1, CoalesceLimit: 8,
		NewService: func(string, int) (Service, error) { return svc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, err := r.CreateTenant("acme", 16)
	if err != nil {
		t.Fatal(err)
	}

	// Pin the first span in flight at the engine, then queue five more
	// behind it: the worker must merge those five into ONE batch.
	var wg sync.WaitGroup
	results := make([]error, 6)
	ingest := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[i] = tn.IngestSpan(context.Background(), pairsSpan([2]int{i, i + 1}))
		}()
	}
	ingest(0)
	<-svc.entered // batch 1 (span 0 alone) is in IngestSpan, stalled
	for i := 1; i <= 5; i++ {
		ingest(i)
	}
	waitQueued(t, tn, 6) // 1 in flight + 5 queued
	svc.gate <- struct{}{}
	<-svc.entered // batch 2 (spans 1..5 merged) reached the engine
	svc.gate <- struct{}{}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("ingest %d failed: %v", i, err)
		}
	}
	if calls := svc.ingestCalls(); calls != 2 {
		t.Errorf("engine saw %d batches, want 2 (1 + coalesced 5)", calls)
	}
	for i := 0; i <= 5; i++ {
		if !tn.SameComponent(i, i+1) {
			t.Errorf("edge {%d,%d} lost in coalescing", i, i+1)
		}
	}
	if st := tn.Stats(); st.IngestedSpans != 6 || st.IngestedEdges != 6 {
		t.Errorf("stats after coalesced ingest = %+v", st)
	}
}

func TestCoalescingNeverCrossesTenants(t *testing.T) {
	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	var svcs []*fakeSvc
	var mu sync.Mutex
	r, err := New(Config{Shards: 1, CoalesceLimit: 8,
		NewService: func(string, int) (Service, error) {
			s := newFakeSvc(8)
			s.entered, s.gate = entered, gate
			mu.Lock()
			svcs = append(svcs, s)
			mu.Unlock()
			return s, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Both tenants land on shard 0: there is only one shard.
	ta, err := r.CreateTenant("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := r.CreateTenant("b", 8)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	ingest := func(tn *Tenant, u, v int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{u, v})); err != nil {
				t.Errorf("ingest {%d,%d}: %v", u, v, err)
			}
		}()
	}
	ingest(ta, 0, 1)
	<-entered // a's first span in flight
	ingest(tb, 2, 3)
	waitQueued(t, tb, 1) // b's span queued behind it
	ingest(ta, 4, 5)
	waitQueued(t, ta, 2)
	// Queue order is now [b23, a45] behind the in-flight a01: b's span
	// must break the run, so the engines see three separate batches.
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
		if i < 2 {
			<-entered
		}
	}
	wg.Wait()
	total := 0
	for _, s := range svcs {
		total += s.ingestCalls()
	}
	if total != 3 {
		t.Errorf("engines saw %d batches, want 3 (no cross-tenant merge)", total)
	}
	if !ta.SameComponent(0, 1) || !ta.SameComponent(4, 5) || !tb.SameComponent(2, 3) {
		t.Error("edges lost")
	}
	if tb.SameComponent(0, 1) {
		t.Error("tenant isolation violated: b sees a's edge")
	}
}

func TestBackpressureShardQueueFull(t *testing.T) {
	svc := gatedSvc(64)
	r, err := New(Config{Shards: 1, QueueCap: 2, TenantQueueCap: 100, CoalesceLimit: 1,
		NewService: func(string, int) (Service, error) { return svc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, err := r.CreateTenant("acme", 64)
	if err != nil {
		t.Fatal(err)
	}

	// One span in flight at the engine plus QueueCap=2 queued.
	var wg sync.WaitGroup
	ingest := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{2 * i, 2*i + 1})); err != nil {
				t.Errorf("ingest %d: %v", i, err)
			}
		}()
	}
	ingest(0)
	<-svc.entered
	ingest(1)
	ingest(2)
	waitQueued(t, tn, 3)
	// The shard queue is at capacity: the next push must bounce.
	if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{40, 41})); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow ingest: %v, want ErrOverloaded", err)
	}
	close(svc.gate) // release everything
	wg.Wait()
	if st := tn.Stats(); st.IngestedSpans != 3 {
		t.Errorf("IngestedSpans = %d, want 3 (reject must not count)", st.IngestedSpans)
	}
}

func TestTenantBacklogQuota(t *testing.T) {
	svc := gatedSvc(64)
	r, err := New(Config{Shards: 1, QueueCap: 100, TenantQueueCap: 2, CoalesceLimit: 1,
		NewService: func(string, int) (Service, error) { return svc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, err := r.CreateTenant("acme", 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{2 * i, 2*i + 1})); err != nil {
				t.Errorf("ingest %d: %v", i, err)
			}
		}(i)
	}
	waitQueued(t, tn, 2)
	if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{40, 41})); !errors.Is(err, ErrTenantBacklog) {
		t.Fatalf("backlogged ingest: %v, want ErrTenantBacklog", err)
	}
	close(svc.gate)
	wg.Wait()
}

func TestVertexQuota(t *testing.T) {
	r := newTestRouter(t, Config{Shards: 1, MaxVertices: 100})
	if _, err := r.CreateTenant("big", 101); !errors.Is(err, ErrVertexQuota) {
		t.Fatalf("oversized create: %v, want ErrVertexQuota", err)
	}
	tn, err := r.CreateTenant("ok", 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Grow(101); !errors.Is(err, ErrVertexQuota) {
		t.Fatalf("oversized grow: %v, want ErrVertexQuota", err)
	}
	if err := tn.Grow(100); err != nil {
		t.Fatalf("quota-sized grow: %v", err)
	}
	if tn.N() != 100 {
		t.Errorf("N = %d after grow, want 100", tn.N())
	}
}

func TestIngestErrorPropagatesToAllCoalescedJobs(t *testing.T) {
	svc := gatedSvc(16)
	r, err := New(Config{Shards: 1, CoalesceLimit: 8,
		NewService: func(string, int) (Service, error) { return svc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, err := r.CreateTenant("acme", 16)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("engine down")
	var wg sync.WaitGroup
	errs := make([]error, 3)
	ingest := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = tn.IngestSpan(context.Background(), pairsSpan([2]int{i, i + 1}))
		}()
	}
	ingest(0)
	<-svc.entered
	ingest(1)
	ingest(2)
	waitQueued(t, tn, 3)
	svc.setFail(boom)
	svc.gate <- struct{}{} // batch 1 (span 0) fails
	<-svc.entered
	svc.gate <- struct{}{} // batch 2 (spans 1+2 merged) fails too
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("job %d error = %v, want engine error", i, err)
		}
	}
	if st := tn.Stats(); st.IngestedSpans != 0 {
		t.Errorf("failed spans counted as ingested: %d", st.IngestedSpans)
	}
}

func TestCancelledWaitStillApplies(t *testing.T) {
	svc := gatedSvc(8)
	r, err := New(Config{Shards: 1,
		NewService: func(string, int) (Service, error) { return svc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, err := r.CreateTenant("acme", 8)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := tn.IngestSpan(ctx, pairsSpan([2]int{0, 1}))
		done <- err
	}()
	<-svc.entered // the span is in flight; its caller is waiting
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v", err)
	}
	svc.gate <- struct{}{}
	// The span was accepted before the cancel, so it still applies.
	deadline := time.Now().Add(10 * time.Second)
	for !tn.SameComponent(0, 1) {
		if time.Now().After(deadline) {
			t.Fatal("accepted span never applied after cancelled wait")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseDrainsAcceptedWork(t *testing.T) {
	r, err := New(Config{Shards: 2,
		NewService: func(_ string, n int) (Service, error) { return newFakeSvc(n), nil }})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := r.CreateTenant("acme", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{0, 1})); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, err := tn.IngestSpan(context.Background(), pairsSpan([2]int{2, 3})); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
	if _, err := r.CreateTenant("late", 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v, want ErrClosed", err)
	}
}

func TestConcurrentMultiTenantIngest(t *testing.T) {
	r := newTestRouter(t, Config{Shards: 4, QueueCap: 64, TenantQueueCap: 64})
	const tenants, spansEach = 8, 40
	handles := make([]*Tenant, tenants)
	for i := range handles {
		tn, err := r.CreateTenant(string(rune('a'+i)), 2*spansEach+1)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = tn
	}
	var wg sync.WaitGroup
	for _, tn := range handles {
		wg.Add(1)
		go func(tn *Tenant) {
			defer wg.Done()
			for s := 0; s < spansEach; s++ {
				// Chain link s: {2s, 2s+1} then {2s+1, 2s+2}.
				span := pairsSpan([2]int{2 * s, 2*s + 1}, [2]int{2*s + 1, 2*s + 2})
				for {
					_, err := tn.IngestSpan(context.Background(), span)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrTenantBacklog) {
						t.Errorf("tenant %s span %d: %v", tn.ID(), s, err)
						return
					}
					time.Sleep(time.Millisecond) // backpressure: retry
				}
			}
		}(tn)
	}
	wg.Wait()
	for _, tn := range handles {
		// Each tenant's chain connects vertices 0..2*spansEach.
		if !tn.SameComponent(0, 2*spansEach) {
			t.Errorf("tenant %s chain broken", tn.ID())
		}
		st := tn.Stats()
		if st.IngestedSpans != spansEach || st.IngestedEdges != 2*spansEach || st.Queued != 0 {
			t.Errorf("tenant %s stats = %+v", tn.ID(), st)
		}
		if st.NumComponents != 1 {
			t.Errorf("tenant %s components = %d, want 1", tn.ID(), st.NumComponents)
		}
	}
}

// closeTrackingSvc records whether the router closed it.
type closeTrackingSvc struct {
	*fakeSvc
	closed chan struct{}
}

func (s closeTrackingSvc) Close() { close(s.closed) }

// TestCreateTenantBuildsOutsideLock: a tenant's service is built
// without the router lock, so another tenant's create and lookups
// proceed meanwhile; the id stays reserved (a second create of it
// fails, a lookup does not find it) until the build ends; and a service
// whose build outlives Close is closed, not leaked.
func TestCreateTenantBuildsOutsideLock(t *testing.T) {
	entered, gate := make(chan string, 1), make(chan struct{})
	var built sync.Map // tenant id -> closeTrackingSvc
	r, err := New(Config{Shards: 2, NewService: func(tenant string, n int) (Service, error) {
		svc := closeTrackingSvc{newFakeSvc(n), make(chan struct{})}
		built.Store(tenant, svc)
		if tenant != "fast" {
			entered <- tenant
			<-gate
		}
		return svc, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	create := func(id string) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := r.CreateTenant(id, 4)
			done <- err
		}()
		return done
	}

	slow := create("slow")
	<-entered
	if _, err := r.CreateTenant("fast", 4); err != nil {
		t.Fatalf("create beside an in-flight build: %v", err)
	}
	if _, err := r.CreateTenant("slow", 4); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("second create of an id being built: %v, want ErrTenantExists", err)
	}
	if _, ok := r.Tenant("slow"); ok {
		t.Fatal("lookup found a tenant whose service is still being built")
	}
	gate <- struct{}{}
	if err := <-slow; err != nil {
		t.Fatalf("in-flight create: %v", err)
	}
	if _, ok := r.Tenant("slow"); !ok {
		t.Fatal("created tenant not found")
	}

	late := create("late")
	<-entered
	r.Close()
	close(gate)
	if err := <-late; !errors.Is(err, ErrClosed) {
		t.Fatalf("create whose build outlived Close: %v, want ErrClosed", err)
	}
	svc, _ := built.Load("late")
	select {
	case <-svc.(closeTrackingSvc).closed:
	default:
		t.Fatal("service built after Close was not closed")
	}
}
