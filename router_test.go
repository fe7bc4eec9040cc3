package pramcc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/graph"
	"repro/internal/check"
)

// ingestWithRetry pushes one span through the tenant, retrying on
// backpressure (ErrOverloaded / ErrTenantBacklog) — the contract a
// well-behaved client follows when the router sheds load.
func ingestWithRetry(t *testing.T, tn *Tenant, span graph.EdgeSpan) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := tn.IngestSpan(context.Background(), span)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrTenantBacklog) {
			t.Errorf("ingest: %v", err)
			return
		}
		if time.Now().After(deadline) {
			t.Error("backpressure never cleared")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterOracleEquivalence: a tenant ingesting a graph through the
// router — random span splits, queued and coalesced behind a shard
// worker — must label exactly like the BFS oracle and like a single
// Service fed the same graph. Coalescing may only merge work, never
// change the partition.
func TestRouterOracleEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 50 + rng.Intn(300)
			g := graph.Gnm(n, 2+rng.Intn(4*n), seed)
			batches := g.SpanBatches(1 + rng.Intn(12))

			r, err := NewRouter(RouterConfig{Shards: 3, CoalesceLimit: 8, TenantQueueCap: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			tn, err := r.CreateTenant("oracle-eq", n)
			if err != nil {
				t.Fatal(err)
			}
			// Fire the batches concurrently so several queue up behind
			// the shard worker and coalesce; unions commute, so the
			// final partition is order-independent.
			var wg sync.WaitGroup
			for _, b := range batches {
				wg.Add(1)
				go func(b graph.EdgeSpan) {
					defer wg.Done()
					ingestWithRetry(t, tn, b)
				}(b)
			}
			wg.Wait()

			labels := tn.LabelsInto(nil)
			if err := check.SamePartition(labels, g.ComponentsBFS()); err != nil {
				t.Fatalf("router labeling != BFS oracle: %v", err)
			}

			single, err := NewService(n, WithBackend(BackendIncremental))
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			res, err := single.IngestSpan(nil, g.Span())
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(labels, res.Labels); err != nil {
				t.Fatalf("router labeling != single Service: %v", err)
			}
			if tn.NumComponents() != res.NumComponents {
				t.Fatalf("router components = %d, single Service = %d", tn.NumComponents(), res.NumComponents)
			}
			st := tn.Stats()
			if st.IngestedSpans != int64(len(batches)) {
				t.Errorf("IngestedSpans = %d, want %d", st.IngestedSpans, len(batches))
			}
			if st.IngestedEdges != int64(g.NumEdges()) {
				t.Errorf("IngestedEdges = %d, want %d", st.IngestedEdges, g.NumEdges())
			}
		})
	}
}

// TestRouterConcurrentTenants: eight tenants ingesting concurrently
// across four shards each end with their own graph's exact partition
// — shard sharing never leaks edges across tenants.
func TestRouterConcurrentTenants(t *testing.T) {
	r, err := NewRouter(RouterConfig{Shards: 4, QueueCap: 32, TenantQueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const tenants = 8
	graphs := make([]*graph.Graph, tenants)
	handles := make([]*Tenant, tenants)
	for i := range graphs {
		n := 80 + 20*i
		graphs[i] = graph.Gnm(n, 3*n, int64(100+i))
		tn, err := r.CreateTenant(fmt.Sprintf("tenant-%d", i), n)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = tn
	}
	var wg sync.WaitGroup
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, b := range graphs[i].SpanBatches(16) {
				ingestWithRetry(t, handles[i], b)
			}
		}(i)
	}
	wg.Wait()
	for i, tn := range handles {
		if err := check.SamePartition(tn.LabelsInto(nil), graphs[i].ComponentsBFS()); err != nil {
			t.Errorf("tenant %d labeling wrong: %v", i, err)
		}
		if got := tn.Stats().Queued; got != 0 {
			t.Errorf("tenant %d still has %d queued", i, got)
		}
	}
}

// TestRouterQuotasAndErrors covers the public error taxonomy.
func TestRouterQuotasAndErrors(t *testing.T) {
	r, err := NewRouter(RouterConfig{Shards: 2, MaxVertices: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.CreateTenant("big", 1001); !errors.Is(err, ErrVertexQuota) {
		t.Errorf("oversized create: %v, want ErrVertexQuota", err)
	}
	if _, err := r.CreateTenant("bad id!", 10); err == nil {
		t.Error("invalid tenant id accepted")
	}
	tn, err := r.CreateTenant("acme", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateTenant("acme", 10); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate create: %v, want ErrTenantExists", err)
	}
	if _, err := r.Tenant("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown lookup: %v, want ErrUnknownTenant", err)
	}
	if err := tn.Grow(2000); !errors.Is(err, ErrVertexQuota) {
		t.Errorf("oversized grow: %v, want ErrVertexQuota", err)
	}
	if err := tn.Grow(500); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if tn.N() != 500 {
		t.Errorf("N = %d, want 500", tn.N())
	}
	// Ingest range-checks pairs before narrowing to int32.
	if _, err := tn.Ingest(context.Background(), [][2]int{{0, 1 << 40}}); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := tn.Ingest(context.Background(), [][2]int{{0, 1}, {1, 2}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if !tn.SameComponent(0, 2) {
		t.Error("pair ingest lost edges")
	}
	r.Close()
	if _, err := r.CreateTenant("late", 1); !errors.Is(err, ErrRouterClosed) {
		t.Errorf("create after close: %v, want ErrRouterClosed", err)
	}
}

// TestRouterWarmRestart: a durable router recovers every tenant from
// DataDir/t on construction — same shard, same labeling, same durable
// sequence, and immediately writable.
func TestRouterWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := RouterConfig{Shards: 2, DataDir: dir, Options: []Option{WithCheckpointEvery(3)}}

	r1, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		labels []int32
		stats  TenantStats
	}
	want := map[string]snap{}
	for i, id := range []string{"acme", "beta", "gamma"} {
		n := 60 + 30*i
		g := graph.Gnm(n, 2*n, int64(7+i))
		tn, err := r1.CreateTenant(id, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range g.SpanBatches(5) {
			ingestWithRetry(t, tn, b)
		}
		st := tn.Stats()
		if !st.Durable || st.DurableSeq == 0 {
			t.Fatalf("tenant %s not durable: %+v", id, st)
		}
		want[id] = snap{labels: tn.LabelsInto(nil), stats: st}
	}
	r1.Close()

	r2, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := len(r2.Tenants()); got != len(want) {
		t.Fatalf("recovered %d tenants, want %d", got, len(want))
	}
	for id, w := range want {
		tn, err := r2.Tenant(id)
		if err != nil {
			t.Fatalf("tenant %s not recovered: %v", id, err)
		}
		if tn.Shard() != r2.ShardOf(id) {
			t.Errorf("tenant %s shard moved", id)
		}
		if tn.N() != w.stats.N {
			t.Errorf("tenant %s N = %d, want %d", id, tn.N(), w.stats.N)
		}
		if err := check.SamePartition(tn.LabelsInto(nil), w.labels); err != nil {
			t.Errorf("tenant %s labeling lost: %v", id, err)
		}
		st := tn.Stats()
		if !st.Durable || st.DurableSeq < w.stats.DurableSeq {
			t.Errorf("tenant %s durable seq regressed: %+v vs %+v", id, st, w.stats)
		}
		if st.NumComponents != w.stats.NumComponents {
			t.Errorf("tenant %s components = %d, want %d", id, st.NumComponents, w.stats.NumComponents)
		}
		// Recovered tenants accept writes immediately.
		if _, err := tn.IngestSpan(context.Background(), graph.FromPairs([][2]int{{0, 1}})); err != nil {
			t.Errorf("tenant %s ingest after recovery: %v", id, err)
		}
	}
}

// TestRouterRecoversUnwrittenTenant: a tenant created on a durable
// router and never written holds only its identity root, and a warm
// restart brings it back with its n isolated vertices.
func TestRouterRecoversUnwrittenTenant(t *testing.T) {
	cfg := RouterConfig{Shards: 2, DataDir: t.TempDir()}
	r1, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.CreateTenant("idle", 37); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	r2, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	tn, err := r2.Tenant("idle")
	if err != nil {
		t.Fatalf("unwritten tenant not recovered: %v", err)
	}
	if tn.N() != 37 || tn.NumComponents() != 37 {
		t.Fatalf("recovered N = %d with %d components, want 37 isolated vertices", tn.N(), tn.NumComponents())
	}
	if st := tn.Stats(); !st.Durable || st.DurableSeq != 0 {
		t.Fatalf("recovered tenant stats %+v, want durable at seq 0", st)
	}
}

// routerRecoveryFixture persists one tenant per id on a 2-shard durable
// router — each a random graph ingested in a few spans under a small
// checkpoint cadence, so recovery starts from snapshots and from
// identity roots and replays WAL tails — and returns the config and
// every tenant's labels at close.
func routerRecoveryFixture(t *testing.T, ids []string) (RouterConfig, map[string][]int32) {
	t.Helper()
	cfg := RouterConfig{Shards: 2, DataDir: t.TempDir(), Options: []Option{WithCheckpointEvery(4)}}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	shards := map[int]bool{}
	want := map[string][]int32{}
	// Distinct vertex counts let a recovery hook tell the tenants apart.
	for i, id := range ids {
		n := 50 + 17*i
		tn, err := r.CreateTenant(id, n)
		if err != nil {
			t.Fatal(err)
		}
		shards[tn.Shard()] = true
		g := graph.Gnm(n, n, int64(100+i))
		for _, b := range g.SpanBatches(1 + i%7) {
			ingestWithRetry(t, tn, b)
		}
		want[id] = tn.LabelsInto(nil)
	}
	if len(shards) != 2 {
		t.Fatalf("tenants %v landed on %d shard(s), want both", ids, len(shards))
	}
	return cfg, want
}

// shardOf is the shard a tenant id maps to under cfg's shard count.
func shardOf(cfg RouterConfig, id string) int {
	r, err := NewRouter(RouterConfig{Shards: cfg.Shards})
	if err != nil {
		panic(err)
	}
	defer r.Close()
	return r.ShardOf(id)
}

// TestRouterConcurrentRecovery: tenants spread over both shards are
// recovered concurrently — the two shards' opens overlap — with at most
// one open in flight per shard, and every tenant comes back with
// exactly its labels.
func TestRouterConcurrentRecovery(t *testing.T) {
	ids := []string{"ada", "bob", "cyd", "dee", "eve", "fay", "gus", "hal"}
	cfg, want := routerRecoveryFixture(t, ids)

	// Every fixture tenant has its own vertex count, which identifies
	// its shard inside the hook.
	shardOfN := map[int]int{}
	for id, labels := range want {
		shardOfN[len(labels)] = shardOf(cfg, id)
	}
	var (
		mu       sync.Mutex
		inFlight [2]int
		overlap  []string
		met      = make(chan struct{})
		metOnce  sync.Once
	)
	// An open holds its shard until both shards have an open in flight
	// (or 2 s pass), so recovery one tenant at a time cannot pass.
	recoveryHook = func(sv *Service) {
		sh := shardOfN[sv.N()]
		mu.Lock()
		inFlight[sh]++
		if inFlight[sh] > 1 {
			overlap = append(overlap, fmt.Sprintf("shard %d", sh))
		}
		both := inFlight[0] > 0 && inFlight[1] > 0
		mu.Unlock()
		if both {
			metOnce.Do(func() { close(met) })
		}
		select {
		case <-met:
		case <-time.After(2 * time.Second):
		}
		mu.Lock()
		inFlight[sh]--
		mu.Unlock()
	}
	defer func() { recoveryHook = nil }()

	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(overlap) != 0 {
		t.Fatalf("two opens in flight at once on %v", overlap)
	}
	select {
	case <-met:
	default:
		t.Fatal("the two shards' opens never overlapped: recovery ran one tenant at a time")
	}
	if got := len(r.Tenants()); got != len(ids) {
		t.Fatalf("recovered %d tenants, want %d", got, len(ids))
	}
	for _, id := range ids {
		tn, err := r.Tenant(id)
		if err != nil {
			t.Fatalf("tenant %s not recovered: %v", id, err)
		}
		got := tn.LabelsInto(nil)
		if fmt.Sprint(got) != fmt.Sprint(want[id]) {
			t.Fatalf("tenant %s recovered labels differ from its labels at close", id)
		}
	}
}

// TestRouterRecoveryFailureClosesTenants: one corrupt store fails
// NewRouter with that tenant's name, and every tenant service recovery
// did open is closed again — none is left holding its store.
func TestRouterRecoveryFailureClosesTenants(t *testing.T) {
	ids := []string{"ada", "bob", "cyd", "dee", "eve", "fay", "zed"}
	cfg, _ := routerRecoveryFixture(t, ids)
	manifest := filepath.Join(cfg.DataDir, "t", "zed", "MANIFEST")
	if err := os.WriteFile(manifest, []byte("PCCM 1\nidentity 5\ncrc 00000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		opened []*Service
	)
	recoveryHook = func(sv *Service) {
		mu.Lock()
		opened = append(opened, sv)
		mu.Unlock()
	}
	defer func() { recoveryHook = nil }()

	r, err := NewRouter(cfg)
	if err == nil {
		r.Close()
		t.Fatal("NewRouter recovered a corrupt store")
	}
	if !strings.Contains(err.Error(), `"zed"`) {
		t.Fatalf("NewRouter error %q does not name the corrupt tenant", err)
	}
	// zed sorts last, so its shard opens every other tenant it holds
	// before it fails.
	before := 0
	for _, id := range ids[:len(ids)-1] {
		if shardOf(cfg, id) == shardOf(cfg, "zed") {
			before++
		}
	}
	if len(opened) < before {
		t.Fatalf("recovery opened %d tenants, want at least the %d ahead of zed on its shard", len(opened), before)
	}
	for _, sv := range opened {
		if _, err := sv.Ingest(nil, nil); !errors.Is(err, ErrSolverClosed) {
			t.Fatalf("a recovered tenant service is still open after the failed NewRouter (Ingest: %v)", err)
		}
	}
}
