package pramcc

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// defaultCheckpointEvery is the snapshot cadence (in logged batches)
// when WithCheckpointEvery is absent.
const defaultCheckpointEvery = 64

// Warm-start metrics: what the most recent pramcc.Open recovery did.
var (
	mRecoveryBatches = obs.Default.Gauge("pramcc_recovery_replayed_batches",
		"WAL batch records replayed by the most recent warm start (0 after a cold open)")
	mRecoveryEdges = obs.Default.Gauge("pramcc_recovery_replayed_edges",
		"edges replayed from the WAL by the most recent warm start")
)

// lastRecoveryNanos feeds the recovery-duration gauge; 0 until the
// first warm start.
var lastRecoveryNanos atomic.Int64

func init() {
	obs.Default.GaugeFunc("pramcc_recovery_duration_seconds",
		"wall-clock duration of the most recent warm-start recovery (-1 before the first)",
		func() float64 {
			ns := lastRecoveryNanos.Load()
			if ns == 0 {
				return -1
			}
			return float64(ns) / 1e9
		})
}

// RecoveryStats describes the warm start that produced a Service, as
// reported by Service.RecoveryStats.
type RecoveryStats struct {
	// SnapshotSeq is the batch sequence number of the root the
	// recovery started from: a snapshot's, or 0 for the identity root
	// of a store that never checkpointed a snapshot.
	SnapshotSeq uint64
	// ReplayedBatches and ReplayedEdges count the WAL records (and the
	// edges inside span records) replayed on top of the root.
	ReplayedBatches int
	ReplayedEdges   int64
	// Duration is the wall-clock time of restore plus replay.
	Duration time.Duration
}

// recoveryHook, when non-nil, runs after a warm start publishes the
// recovered root and before WAL replay begins — a test seam for
// exercising concurrent queries against a service mid-recovery.
var recoveryHook func(*Service)

// Open opens (or creates) a durable Service rooted at dir. A fresh
// directory starts the service on WithInitialVertices isolated
// vertices and makes that empty labeling the store's root at once — a
// manifest entry of n isolated vertices at seq 0, not an n-sized
// snapshot file — so a crash before the first batch reopens to the
// same n vertices. A directory with existing state warm-starts
// instead: the newest valid root is restored and published, every
// record of the write-ahead log past it is replayed exactly once into
// the engine's forest (spans linked, grows applied, in log order), and
// the result is published once, after which Service.RecoveryStats
// reports what was done. A warm start's work is the root's Θ(n)
// restore, the Θ(replayed edges) links and one Θ(n) flatten, whatever
// the number of replayed records; its published Stats.Rounds counts
// the replayed span records, as if they had been ingested one by one.
// From then on every accepted Ingest/IngestSpan/Grow batch is
// logged (and fsynced) to the WAL before its snapshot publishes, every
// Update is checkpointed before it publishes, and a snapshot
// checkpoint is written every WithCheckpointEvery logged batches, so a
// later Open resumes from the exact labeling queries last saw.
//
// Durability needs a streaming engine to replay into, so Open defaults
// to BackendIncremental; selecting a non-streaming backend via
// WithBackend is an error. Close the returned Service to release the
// store's file handles.
func Open(dir string, opts ...Option) (*Service, error) {
	return openFS(dir, nil, opts...)
}

// openFS is Open with an injectable filesystem — the crash-injection
// seam. A nil fsys selects the real filesystem.
func openFS(dir string, fsys durable.FS, opts ...Option) (*Service, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.backendSet {
		opts = append([]Option{WithBackend(BackendIncremental)}, opts...)
		cfg.backend = BackendIncremental
	}
	st, rec, err := durable.Open(dir, fsys)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		sv, err := newDurableBase(cfg, cfg.initialVertices, opts)
		if err != nil {
			st.Close()
			return nil, err
		}
		// The identity root makes the empty labeling the manifest's
		// root of truth: a crash before the first batch reopens to the
		// same n isolated vertices the caller started with.
		if err := st.CheckpointIdentity(sv.N()); err != nil {
			sv.Close()
			st.Close()
			return nil, err
		}
		sv.attachStore(st, cfg)
		return sv, nil
	}

	start := time.Now()
	sv, err := newDurableBase(cfg, 0, opts)
	if err != nil {
		st.Close()
		return nil, err
	}
	edges, err := sv.recoverFrom(rec)
	if err != nil {
		sv.Close()
		st.Close()
		return nil, err
	}
	sv.attachStore(st, cfg)
	sv.recovery = &RecoveryStats{
		SnapshotSeq:     rec.SnapshotSeq,
		ReplayedBatches: len(rec.Records),
		ReplayedEdges:   edges,
		Duration:        time.Since(start),
	}
	mRecoveryBatches.Set(int64(len(rec.Records)))
	mRecoveryEdges.Set(edges)
	lastRecoveryNanos.Store(int64(sv.recovery.Duration))
	// A replay long enough to be due for a checkpoint gets one now, so
	// repeated crash/reopen cycles cannot grow the WAL without bound.
	if st.BatchesSinceCheckpoint() >= sv.ckptEvery {
		if err := st.Checkpoint(sv.snap.Load().Labels, st.Seq()); err != nil {
			sv.Close()
			return nil, err
		}
	}
	return sv, nil
}

// newDurableBase builds the in-memory Service a durable open wraps,
// enforcing that the engine can stream (replay requires it).
func newDurableBase(cfg config, n int, opts []Option) (*Service, error) {
	sv, err := NewService(n, opts...)
	if err != nil {
		return nil, err
	}
	if _, ok := sv.solver.eng.(streamEngine); !ok {
		sv.Close()
		return nil, fmt.Errorf("pramcc: durable service requires a streaming backend (backend %v cannot replay a WAL)", cfg.backend)
	}
	return sv, nil
}

// attachStore arms the service's durability hooks. Called before the
// Service escapes to the caller, so no lock is needed.
func (sv *Service) attachStore(st *durable.Store, cfg config) {
	sv.store = st
	sv.ckptEvery = cfg.checkpointEvery
	if sv.ckptEvery < 1 {
		sv.ckptEvery = defaultCheckpointEvery
	}
}

// recoverFrom restores rec's root into the engine and publishes it,
// then links the recovered WAL records into the engine's forest in
// sequence order — a span is linked, a grow widens the forest — and
// publishes the result once. It mirrors the live IngestSpan/Grow paths
// minus the logging (the records are already durable) and minus the
// per-record flatten: K records cost their edges plus one Θ(n) pass,
// not K of them. Queries running during recovery see the restored root
// until the replayed labeling replaces it whole.
func (sv *Service) recoverFrom(rec *durable.Recovered) (edges int64, err error) {
	// The decoded labels are immutable from here on: the engine's
	// forest copies them once, and they are published as they are.
	se := sv.solver.eng.(streamEngine)
	sv.publish(&Result{
		Labels:        rec.Labels,
		NumComponents: se.restore(rec.Labels),
		Stats:         Stats{Backend: sv.solver.cfg.backend},
	})
	if recoveryHook != nil {
		recoveryHook(sv)
	}
	if len(rec.Records) == 0 {
		return 0, nil
	}
	for _, r := range rec.Records {
		switch r.Kind {
		case durable.KindGrow:
			se.grow(r.N)
		case durable.KindSpan:
			if err := se.link(r.Span); err != nil {
				return 0, fmt.Errorf("pramcc: wal replay at seq %d: %w", r.Seq, err)
			}
			edges += int64(r.Span.Len())
		default:
			return 0, fmt.Errorf("pramcc: wal replay at seq %d: unknown wal record kind %d", r.Seq, r.Kind)
		}
	}
	var out solveOutput
	components := se.flatten(&out)
	out.stats.Backend = sv.solver.cfg.backend
	sv.publish(&Result{
		Labels:        out.labels,
		NumComponents: components,
		Stats:         out.stats,
	})
	return edges, nil
}

// Persist makes a live in-memory Service durable: dir (which must not
// already contain a store — reopen one of those with Open) becomes its
// store, seeded with a checkpoint of the currently published labeling,
// and every subsequent accepted batch is logged before it publishes,
// exactly as for a service built by Open. Only WithCheckpointEvery is
// consulted from opts. Streaming backends only.
func (sv *Service) Persist(dir string, opts ...Option) error {
	return sv.persistFS(dir, nil, opts...)
}

// persistFS is Persist with an injectable filesystem (crash-injection
// seam); nil fsys selects the real filesystem.
func (sv *Service) persistFS(dir string, fsys durable.FS, opts ...Option) error {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return ErrSolverClosed
	}
	if sv.store != nil {
		return fmt.Errorf("pramcc: service is already persisted")
	}
	if _, ok := sv.solver.eng.(streamEngine); !ok {
		return fmt.Errorf("pramcc: durable service requires a streaming backend (backend %v cannot replay a WAL)", sv.solver.cfg.backend)
	}
	st, rec, err := durable.Open(dir, fsys)
	if err != nil {
		return err
	}
	if rec != nil {
		st.Close()
		return fmt.Errorf("pramcc: %s already holds a durable store (snapshot seq %d); reopen it with pramcc.Open instead of persisting over it", dir, rec.SnapshotSeq)
	}
	if err := st.Checkpoint(sv.snap.Load().Labels, 0); err != nil {
		st.Close()
		return err
	}
	sv.attachStore(st, cfg)
	return nil
}

// DurableSeq returns the last batch sequence number made durable
// (logged and fsynced, or covered by a checkpoint) and whether the
// service is persisted at all.
func (sv *Service) DurableSeq() (uint64, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.store == nil {
		return 0, false
	}
	return sv.store.Seq(), true
}

// RecoveryStats reports the warm start that produced this Service via
// Open, or ok=false for a cold open, a Persist-ed service, or a plain
// in-memory one.
func (sv *Service) RecoveryStats() (stats RecoveryStats, ok bool) {
	if sv.recovery == nil {
		return RecoveryStats{}, false
	}
	return *sv.recovery, true
}
