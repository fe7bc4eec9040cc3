// Package pramcc is a Go reproduction of "Connected Components on a
// PRAM in Log Diameter Time" (S. Cliff Liu, Robert E. Tarjan, Peilin
// Zhong; SPAA 2020). It provides the three algorithms of the paper on
// top of a simulated ARBITRARY CRCW PRAM:
//
//   - ConnectedComponents — Theorem 3, O(log d + log log_{m/n} n) time,
//     O(m) processors (EXPAND-MAXLINK with levels and budgets);
//   - ConnectedComponentsLogLog — Theorem 1, O(log d · log log_{m/n} n)
//     time (EXPAND / VOTE / LINK);
//   - SpanningForest — Theorem 2, same bound as Theorem 1, returning a
//     spanning forest of input edges (TREE-LINK);
//   - VanillaComponents — Reif's O(log n) algorithm (§B.1), the
//     baseline and preprocessing subroutine.
//
// All results carry simulated-PRAM cost statistics (rounds, steps,
// work, peak processors, peak space) so the paper's bounds can be
// checked empirically; see EXPERIMENTS.md and cmd/ccbench.
//
// # One-shot vs. long-lived
//
// Every entry point comes in two shapes. The free functions
// (Components, ConnectedComponents, …) are one-shot: validate, solve,
// return an independently owned Result — the right call for scripts
// and tests. Production callers serving many solves should hold a
// Solver instead: a long-lived handle that owns the execution engine —
// the worker pool and the pre-sized scratch/label buffers — so
// repeated Solve(ctx, g) calls amortize all allocation (zero
// steady-state allocations on the native backend), honour
// context.Context cancellation and deadlines at every round or batch
// boundary, and fail fast on already-cancelled contexts. On top of the
// Solver sits Service, the serving layer: it publishes each completed
// labeling as an immutable snapshot through an atomic pointer, so
// SameComponent/Labels/NumComponents queries are answered lock-free
// and concurrently while Update (full recompute) or Ingest (streaming
// batches, incremental backend) replaces the snapshot — a cancelled or
// failed update publishes nothing and queries keep serving the
// previous labeling. Components and ConnectedComponents are
// themselves one Solve on a Solver built for the call and closed
// before it returns: there is one solve path, and a free-function call
// leaves no engine or worker pool behind.
//
// Migration is mechanical:
//
//	Components(g, opts...)          →  solver.Solve(ctx, g)       (solver := NewSolver(opts...))
//	ConnectedComponents(g, opts...) →  solver.Solve(ctx, g)       (simulated backend, the default)
//	SpanningForest(g, opts...)      →  solver.SpanningForest(ctx, g)
//	Components per query cycle      →  service.Update(ctx, g) + service.SameComponent(v, w)
//
// The separate streaming Incremental handle has been removed: a
// Service built with WithBackend(BackendIncremental) takes its place,
// with IngestSpan for spans and Ingest for [][2]int batches.
//
// # Three execution backends
//
// The package has three interchangeable execution backends behind the
// Components entry point, each an implementation of the internal
// engine interface in the backend registry; Backends and BackendNames
// enumerate the registry, ParseBackend resolves names and aliases
// case-insensitively against it, and Backend implements
// encoding.TextMarshaler/TextUnmarshaler so it drops straight into
// flag.TextVar and JSON output. BackendSimulated (the default) is the
// step-synchronous ARBITRARY CRCW PRAM simulator the four
// algorithm-specific entry points above always use: every model step
// is a barrier and every model cost is accounted, which is the point —
// and which makes it orders of magnitude slower than the hardware.
// BackendNative (internal/native) is a shared-memory engine —
// goroutines with atomic CAS-min on the label array, edge ranges
// sharded over a reusable worker pool — that computes the identical
// partition as fast as the hardware allows and fills only the real
// Stats fields (Backend, Wall, Workers, Rounds), leaving the
// model-only ones zero. BackendIncremental (internal/incremental) is
// a lock-free concurrent union-find (CAS link-by-index with path
// splitting) built for streaming: under Components it ingests the
// whole graph as one batch and returns the same partition as the
// other two backends. Experiments E11 and E12 and the
// examples/nativespeed and examples/streaming programs compare the
// backends side by side.
//
// # Streaming updates and the columnar data path
//
// When edges arrive over time, a Service on the incremental backend
// keeps the labeling fresh without recomputing from scratch:
// NewService(n, WithBackend(BackendIncremental)) creates a live engine
// over n isolated vertices (Grow adds more), IngestSpan (or its boxed
// adapter Ingest) ingests one batch (Θ(batch) union work plus a Θ(n)
// snapshot flatten — never a rescan of previously ingested edges), and
// SameComponent / NumComponents / Labels / LabelsInto answer from a
// flattened snapshot taken at the last batch boundary. Queries are
// safe to call concurrently with an in-flight batch — they see the
// previous consistent snapshot, never a half-ingested one. The
// cmd/ccfind -batches mode replays an edge file through this API and
// reports per-batch latency.
//
// Batches travel the pipeline as graph.EdgeSpan values: zero-copy
// columnar (structure-of-arrays) views over a graph's int32 arc
// columns, produced by Graph.Span / Graph.SpanBatches or the loader
// hooks (graph.ParseEdgeListSpan, graph.ReadBinarySpan) and consumed
// by Service.IngestSpan — no [][2]int is materialized anywhere
// between disk and the union-find, and the replay layer performs zero
// allocations (experiment E14 measures the resulting throughput
// against the boxed path). The [][2]int methods (Service.Ingest,
// Tenant.Ingest) remain as validating adapters over graph.FromPairs
// for callers assembling edges ad hoc; Labels copies,
// while LabelsInto refills a caller-owned buffer allocation-free.
//
// # Observability
//
// The stack is instrumented on two always-compatible tiers. Counters,
// gauges, and duration histograms (spans/edges ingested, ingest
// throughput, snapshot age/sequence, update latency, worker-pool
// occupancy) are always on — each a single atomic add — and are
// rendered in Prometheus text exposition format by WriteMetrics;
// MetricNames enumerates the registry. Structured events are opt-in:
// SetEventSink attaches a process-wide EventSink (NewJSONEventSink
// writes one JSON object per line) and turns on Event envelopes —
// source/category/name/status/duration_ms/measures — emitted at
// engine round/batch boundaries and per Service Update/IngestSpan/
// Grow call. With no sink attached (the default) no envelope is ever
// built, so the zero-allocation guarantees of the span-ingest and
// solver paths hold unchanged. The cmd/ccserve binary serves
// /metrics, /healthz, /debug/pprof, and JSON ingest/query endpoints
// over a Service; OPERATIONS.md is the operator's guide (envelope
// schema, full metrics reference, scrape and pprof walkthroughs).
//
// # Durability
//
// Open roots a streaming Service in a data directory and makes it
// crash-safe: every accepted Ingest/IngestSpan/Grow batch is appended
// to a write-ahead log and fsynced before its snapshot publishes,
// published labelings are checkpointed every WithCheckpointEvery
// batches (and on every Update), and reopening the directory
// warm-starts from the newest valid snapshot plus an exactly-once
// replay of the log — RecoveryStats reports what was done.
// Service.Persist makes an already-running in-memory service durable
// the same way. A cold Open starts from WithInitialVertices isolated
// vertices:
//
//	sv, err := pramcc.Open(dir, pramcc.WithInitialVertices(n))
//	sv.Ingest(ctx, edges)          // durable when the call returns
//	sv.Close()                     // or crash — same outcome:
//	sv, err = pramcc.Open(dir)     // the labels queries last saw
//
// The on-disk formats (PCCS snapshots, PCCW log segments, the
// atomically replaced MANIFEST) and the recovery procedure are
// documented in OPERATIONS.md.
//
// # Sharded service
//
// One process serving many independent graphs — one per customer,
// region, or build — holds a Router instead of a bag of Services:
// NewRouter hashes tenant ids onto a fixed set of shards, each shard
// serializes its tenants' writes through one bounded queue and a
// dedicated worker goroutine, and every query still reads its
// tenant's lock-free snapshot directly. The queue bounds are the
// backpressure contract: a full shard queue fails fast with
// ErrOverloaded and a tenant exceeding its queued-span allowance with
// ErrTenantBacklog (both retryable); RouterConfig.MaxVertices is a
// hard per-tenant quota (ErrVertexQuota, not retryable). Because
// spans are columnar, the shard worker coalesces consecutive queued
// spans of the same tenant into one wide engine batch (two column
// appends), paying the engine's per-batch fixed costs once per merged
// run — experiment E16 measures the resulting throughput win under
// queued load; coalescing never changes the partition. With
// RouterConfig.DataDir set, each tenant persists under DIR/t/<id> and
// NewRouter recovers every existing tenant on construction — a warm
// restart needs no re-ingest:
//
//	r, err := pramcc.NewRouter(pramcc.RouterConfig{Shards: 4, DataDir: dir})
//	tn, err := r.CreateTenant("acme", 1_000_000)
//	tn.Ingest(ctx, edges)            // queued, coalesced, applied
//	tn.SameComponent(v, w)           // lock-free snapshot read
//
// The cmd/ccserve -shards mode serves a Router over HTTP (per-tenant
// endpoints under /v1/t/{tenant}/, admin under /v1/admin/tenants);
// the "Sharded multi-tenant serving" section of OPERATIONS.md is the
// operator contract.
//
// # Static analysis
//
// The invariants above — snapshots touched only through their atomic
// methods and never mutated after publication, zero-allocation ingest
// interiors, ctx checks at every engine round boundary, WAL append
// before snapshot publish, pramcc_-prefixed documented metric names —
// are enforced statically by cmd/cclint, the custom analyzer suite in
// internal/analysis, wired into CI as a required gate. Hot paths are
// marked //pramcc:zeroalloc; intentional exceptions carry
// //pramcc:allow with a reason. CONTRIBUTING.md documents the
// analyzers, both directives, and the fixture workflow.
//
// # Graph formats and loading
//
// Graphs enter the system in two on-disk formats, and every consumer
// (cmd/ccfind, cmd/ccbench -graph, and graph.ReadAuto callers) accepts
// both transparently. The text edge list ("n m" header, one "u v" line
// per edge; WriteEdgeList) is the human-readable interchange format;
// the binary format (magic "PCCG" + version + n/m header + one
// fixed-width little-endian record per edge; WriteBinary) is the bulk
// format — 8 bytes per edge and a near-memcpy decode. Three loaders
// cover the trade-offs: ReadEdgeList is the line-at-a-time streaming
// reference, ReadEdgeListParallel chunks the input on line boundaries
// and parses on a worker pool with a zero-allocation scanner (same
// accept/reject semantics, several times the throughput), and
// ReadBinary decodes the binary format fastest of all. ReadAuto sniffs
// the magic and picks the right parser; experiment E13 tracks the
// throughput ratios. All loaders validate what they read — malformed
// headers (negative or over-int32 counts), out-of-range endpoints,
// truncated binary files, and trailing garbage are errors, never
// panics.
//
// Graphs are built with the repro/graph package:
//
//	g := graph.Gnm(100_000, 400_000, 1)
//	res, err := pramcc.Components(g, pramcc.WithBackend(pramcc.BackendNative))
//	if err != nil { ... }
//	fmt.Println(res.NumComponents, res.Stats.Wall)
//
// and streamed in zero-copy columnar batches with graph.SpanBatches:
//
//	sv, _ := pramcc.NewService(g.N, pramcc.WithBackend(pramcc.BackendIncremental))
//	defer sv.Close()
//	for _, batch := range g.SpanBatches(16) {
//		res, _ := sv.IngestSpan(ctx, batch)
//		fmt.Println(res.NumComponents, res.Stats.Wall)
//	}
package pramcc
