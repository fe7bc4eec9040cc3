// Package durable is the persistence subsystem behind pramcc.Open and
// Service.Persist: snapshot files (PCCS) for published labelings, a
// write-ahead log (PCCW segments) of ingested batches, and an
// atomically-replaced MANIFEST tying them together. The contract is
// checkpoint-plus-delta-stream: a dense snapshot is written rarely
// (every K batches), the batch stream is logged continuously with one
// fsync per batch, and recovery is the newest valid snapshot plus an
// exactly-once replay of the WAL records past its sequence number.
// A fresh store writes no snapshot at all: CheckpointIdentity makes
// "n isolated vertices at seq 0" its root with one manifest write, and
// recovery rebuilds those identity labels from n, so opening a store
// costs what the store holds rather than a dense n-sized file.
//
// Crash discipline, enforced by the crash-injection suite
// (crash_test.go) at every write-site byte offset:
//
//   - WAL appends are framed with per-record CRCs and fsynced per
//     batch, so a crash can only tear the final record; recovery
//     truncates the segment at the first bad record and keeps
//     everything before it.
//   - Snapshots are written to fresh uniquely-named files and become
//     reachable only when the MANIFEST — replaced via write-temp,
//     fsync, rename, fsync-dir — points at them, so a half-written
//     snapshot is never consulted.
//   - The WAL is retained back to the manifest's fallback root, so
//     recovery converges on the same labeling from either manifest
//     entry even if the newest snapshot file is damaged. An identity
//     root in the fallback slot retains the WAL from seq 1 and has no
//     file to delete when a later checkpoint drops it.
//
// Any write or sync failure poisons the store: the failed write leaves
// the durable tail unknowable (the fsync-error discipline), so every
// later mutation returns the original error and the caller keeps
// serving from memory while refusing to acknowledge new durable state.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Durability metrics, process-wide across stores (ccserve, the
// intended operator surface, runs exactly one).
var (
	mWALAppends = obs.Default.Counter("pramcc_wal_appends_total",
		"batch records appended (and fsynced) to the ingest write-ahead log")
	mWALBytes = obs.Default.Counter("pramcc_wal_append_bytes_total",
		"bytes appended to the ingest write-ahead log")
	mCheckpoints = obs.Default.Counter("pramcc_checkpoints_total",
		"checkpoints written by durable stores: snapshots, and the identity root of each fresh store")
	mDurableSeq = obs.Default.Gauge("pramcc_durable_seq",
		"last batch sequence number made durable (logged and fsynced) by the most recent store")
	mDurableSnapSeq = obs.Default.Gauge("pramcc_durable_snapshot_seq",
		"batch sequence number covered by the most recently checkpointed snapshot")
)

// lastCheckpointNanos feeds the scrape-time checkpoint-age gauge.
var lastCheckpointNanos atomic.Int64

func init() {
	obs.Default.GaugeFunc("pramcc_durable_snapshot_age_seconds",
		"seconds since a durable store last checkpointed a snapshot (-1 before the first)",
		func() float64 {
			ns := lastCheckpointNanos.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// Recovered is the warm-start state Open reconstructs from an existing
// store directory: the newest valid root's labeling and the WAL
// records logged after it, in sequence order. The caller restores the
// labeling and replays the records exactly once.
type Recovered struct {
	// Labels is the root's canonical labeling (labels[v] is the
	// minimum vertex id of v's component): a snapshot's, or the
	// identity labels an identity root rebuilds.
	Labels []int32
	// SnapshotSeq is the batch sequence number the snapshot reflects.
	SnapshotSeq uint64
	// Records are the pending WAL records with Seq > SnapshotSeq,
	// contiguous and ascending.
	Records []Record
}

// segInfo tracks one live WAL segment file.
type segInfo struct {
	name  string
	start uint64 // sequence number of the segment's first record
}

// Store is a durable snapshot + WAL store rooted at one directory.
// Writers (LogSpan, LogGrow, Checkpoint) must be externally
// serialized, exactly like the Service write path that drives them.
type Store struct {
	dir  string
	fsys FS

	seq       uint64        // last durably logged batch seq
	cur       manifestEntry // the manifest's newest root
	prev      manifestEntry // its fallback root; prev.seq is the WAL retention floor
	hasRoot   bool          // the manifest exists (cur and prev are set)
	segments  []segInfo     // live segments, ascending start; last is open
	seg       File          // open tail segment
	sinceCkpt int           // batches logged since the last checkpoint
	encBuf    []byte        // reusable record encode buffer
	failed    error
}

// Open opens the store directory, creating it (and returning a nil
// Recovered) when it holds no MANIFEST. With a manifest present it
// recovers: newest valid snapshot, WAL scan with torn-tail truncation,
// and the pending record list — see Recovered.
func Open(dir string, fsys FS) (*Store, *Recovered, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, fsys: fsys}
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		// Fresh store. Stray snapshot/WAL files from a crash before the
		// first checkpoint are unreachable (no manifest names them);
		// clear them so the directory starts clean.
		names, err := fsys.ReadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range names {
			if strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-") {
				if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := s.openSegment(1); err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	entries, err := decodeManifest(data)
	if err != nil {
		return nil, nil, err
	}
	rec, err := s.recover(entries)
	if err != nil {
		return nil, nil, err
	}
	// A recovered empty tail (its start is exactly seq+1 — had it held
	// records, seq would have advanced past it) is recreated by
	// openSegment under the same name; untrack it first so the segment
	// list never holds the tail twice.
	if n := len(s.segments); n > 0 && s.segments[n-1].start == s.seq+1 {
		s.segments = s.segments[:n-1]
	}
	if err := s.openSegment(s.seq + 1); err != nil {
		return nil, nil, err
	}
	mDurableSeq.Set(int64(s.seq))
	mDurableSnapSeq.Set(int64(s.cur.seq))
	return s, rec, nil
}

// recover loads the newest valid root among entries and scans the WAL
// for the records past it.
func (s *Store) recover(entries []manifestEntry) (*Recovered, error) {
	var labels []int32
	var rootErrs []error
	ok := false
	for _, e := range entries {
		var err error
		if labels, err = s.loadRoot(e); err == nil {
			s.cur, ok = e, true
			break
		}
		rootErrs = append(rootErrs, err)
	}
	if !ok {
		return nil, fmt.Errorf("durable: no manifest root is readable: %v", rootErrs)
	}
	s.hasRoot = true
	s.prev = entries[len(entries)-1]
	s.seq = s.cur.seq

	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, name := range names {
		var start uint64
		if n, err := fmt.Sscanf(name, "wal-%016x.pccw", &start); n == 1 && err == nil {
			segs = append(segs, segInfo{name: name, start: start})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	rec := &Recovered{Labels: labels, SnapshotSeq: s.cur.seq}
	next := s.cur.seq + 1
	var live []segInfo
	broken := false
	for _, seg := range segs {
		path := filepath.Join(s.dir, seg.name)
		// Once the record stream breaks — torn tail, damaged header, or
		// a sequence gap — every later segment belongs to a timeline
		// that was never acknowledged; it must be deleted, or a future
		// recovery could splice its stale records after fresh ones that
		// reuse the same sequence numbers.
		if broken {
			if err := s.fsys.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			return nil, err
		}
		firstSeq, recs, tornAt, err := DecodeSegment(data)
		if err != nil || firstSeq > next {
			// A damaged header (crash inside openSegment) holds no
			// records; a sequence gap means the records are unreachable
			// from the snapshot. Either way the file is dead.
			broken = true
			if err := s.fsys.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		for _, r := range recs {
			if r.Seq < next {
				continue // already covered by the snapshot
			}
			rec.Records = append(rec.Records, r)
			next = r.Seq + 1
		}
		if tornAt < len(data) {
			// Torn tail: cut the damage away so future scans see a clean
			// segment. A segment torn before its first record is simply
			// an empty file — remove it instead.
			broken = true
			if tornAt == walHeaderSize {
				if err := s.fsys.Remove(path); err != nil {
					return nil, err
				}
				continue
			}
			if err := s.fsys.Truncate(path, int64(tornAt)); err != nil {
				return nil, err
			}
		}
		live = append(live, seg)
	}
	s.segments = live
	s.seq = next - 1
	s.sinceCkpt = len(rec.Records)
	return rec, nil
}

// loadRoot returns the labeling of one manifest root: the identity
// labels of an identity root, or the decoded labels of a snapshot file
// that carries the seq the manifest lists.
func (s *Store) loadRoot(e manifestEntry) ([]int32, error) {
	if e.identity() {
		labels := wire.Column(e.n)
		for v := range labels {
			labels[v] = int32(v)
		}
		return labels, nil
	}
	data, err := s.fsys.ReadFile(filepath.Join(s.dir, e.file))
	if err != nil {
		return nil, err
	}
	seq, labels, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if seq != e.seq {
		return nil, fmt.Errorf("durable: snapshot %s carries seq %d, manifest says %d", e.file, seq, e.seq)
	}
	return labels, nil
}

// openSegment creates and syncs a fresh tail segment whose first
// record will carry seq start.
func (s *Store) openSegment(start uint64) error {
	name := fmt.Sprintf("wal-%016x.pccw", start)
	f, err := s.fsys.Create(filepath.Join(s.dir, name))
	if err != nil {
		return s.fail(err)
	}
	if _, err := f.Write(appendSegmentHeader(nil, start)); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		f.Close()
		return s.fail(err)
	}
	s.seg = f
	s.segments = append(s.segments, segInfo{name: name, start: start})
	return nil
}

// fail poisons the store with its first error; every later mutation
// returns it.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("durable: store failed, refusing further writes: %w", err)
	}
	return s.failed
}

// Failed returns the poisoning error, nil while the store is healthy.
func (s *Store) Failed() error { return s.failed }

// Seq returns the last durably logged batch sequence number.
func (s *Store) Seq() uint64 { return s.seq }

// SnapshotSeq returns the sequence number covered by the manifest's
// newest root.
func (s *Store) SnapshotSeq() uint64 { return s.cur.seq }

// BatchesSinceCheckpoint returns how many batches have been logged (or
// recovered) since the last checkpoint — the checkpoint-every-K input.
func (s *Store) BatchesSinceCheckpoint() int { return s.sinceCkpt }

// LogSpan appends one span batch to the WAL and fsyncs it, returning
// the batch's assigned sequence number. The record is durable when
// LogSpan returns nil.
func (s *Store) LogSpan(span graph.EdgeSpan) (uint64, error) {
	return s.logRecord(func(buf []byte, seq uint64) []byte {
		return AppendSpanRecord(buf, seq, span)
	})
}

// LogGrow appends a grow-to-n record to the WAL and fsyncs it.
func (s *Store) LogGrow(n int) (uint64, error) {
	return s.logRecord(func(buf []byte, seq uint64) []byte {
		return AppendGrowRecord(buf, seq, n)
	})
}

func (s *Store) logRecord(enc func(buf []byte, seq uint64) []byte) (uint64, error) {
	if s.failed != nil {
		return 0, s.failed
	}
	seq := s.seq + 1
	s.encBuf = enc(s.encBuf[:0], seq)
	if _, err := s.seg.Write(s.encBuf); err != nil {
		return 0, s.fail(err)
	}
	if err := s.seg.Sync(); err != nil {
		return 0, s.fail(err)
	}
	s.seq = seq
	s.sinceCkpt++
	mWALAppends.Inc()
	mWALBytes.Add(int64(len(s.encBuf)))
	mDurableSeq.Set(int64(seq))
	return seq, nil
}

// Checkpoint persists labels as the snapshot covering seq, swaps the
// manifest to it, rotates the tail segment, and drops WAL segments
// that precede the new fallback root. seq must be the store's current
// Seq() (a batch-boundary checkpoint) or Seq()+1 (a full rebuild —
// Service.Update — which consumes a sequence number of its own so
// replay cannot double-apply across it).
func (s *Store) Checkpoint(labels []int32, seq uint64) error {
	if s.failed != nil {
		return s.failed
	}
	if seq != s.seq && seq != s.seq+1 {
		return fmt.Errorf("durable: checkpoint seq %d out of step with store seq %d", seq, s.seq)
	}
	return s.swapRoot(manifestEntry{file: fmt.Sprintf("snap-%016x.pccs", seq), seq: seq}, labels)
}

// CheckpointIdentity makes n isolated vertices at seq 0 the root of a
// fresh store (one that has no root and has logged nothing): the
// manifest lists only the identity root and no snapshot file is
// written, so a fresh store's checkpoint costs one small manifest
// write whatever n is. A later Checkpoint moves the identity root into
// the fallback slot; recovery from it rebuilds the identity labels.
func (s *Store) CheckpointIdentity(n int) error {
	if s.failed != nil {
		return s.failed
	}
	if s.hasRoot || s.seq != 0 {
		return fmt.Errorf("durable: identity root on a store that already has one or has logged batches (seq %d)", s.seq)
	}
	if n < 0 || n > maxIdentityN {
		return fmt.Errorf("durable: identity root of %d vertices outside [0, 2^31)", n)
	}
	return s.swapRoot(manifestEntry{n: n}, nil)
}

// swapRoot makes root the manifest's newest root, with the current
// root — an identity root too — as its fallback. A snapshot root's
// file is written and fsynced before the manifest names it; the
// identity root has no file.
func (s *Store) swapRoot(root manifestEntry, labels []int32) error {
	if !root.identity() {
		f, err := s.fsys.Create(filepath.Join(s.dir, root.file))
		if err != nil {
			return s.fail(err)
		}
		if err := WriteSnapshot(f, root.seq, labels); err != nil {
			f.Close()
			return s.fail(err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return s.fail(err)
		}
		if err := f.Close(); err != nil {
			return s.fail(err)
		}
	}
	entries := []manifestEntry{root}
	if s.hasRoot && s.cur.file != root.file {
		entries = append(entries, s.cur)
	}
	if err := writeManifest(s.fsys, s.dir, entries); err != nil {
		return s.fail(err)
	}

	// The manifest now names the new root; everything below is space
	// reclamation and tail rotation, bounded by the same fail-stop
	// discipline but never able to lose acknowledged state.
	dropped := s.prev
	s.cur, s.prev = entries[0], entries[len(entries)-1]
	s.hasRoot = true
	s.seq = root.seq
	s.sinceCkpt = 0
	// The dropped fallback's file goes, unless it is still named or it
	// has none (the identity root).
	if !dropped.identity() && dropped.file != s.prev.file && dropped.file != s.cur.file {
		if err := s.fsys.Remove(filepath.Join(s.dir, dropped.file)); err != nil {
			return s.fail(err)
		}
	}
	if err := s.rotate(); err != nil {
		return err
	}
	if err := s.dropAppliedSegments(); err != nil {
		return err
	}
	mCheckpoints.Inc()
	mDurableSnapSeq.Set(int64(root.seq))
	mDurableSeq.Set(int64(root.seq))
	lastCheckpointNanos.Store(time.Now().UnixNano())
	return nil
}

// rotate closes the tail segment and opens a fresh one at seq+1,
// unless the tail is already empty at exactly that position.
func (s *Store) rotate() error {
	tail := s.segments[len(s.segments)-1]
	if tail.start == s.seq+1 {
		return nil // freshly opened, no records yet — keep it
	}
	if err := s.seg.Close(); err != nil {
		return s.fail(err)
	}
	return s.openSegment(s.seq + 1)
}

// dropAppliedSegments removes WAL segments whose records all precede
// the fallback root — they can never be replayed again, from either
// manifest entry.
func (s *Store) dropAppliedSegments() error {
	floor := s.prev.seq
	keep := s.segments[:0]
	for i, seg := range s.segments {
		// A segment's records end where the next segment starts; only a
		// fully-superseded segment (next.start ≤ floor+1) is deletable,
		// and the open tail never is.
		if i+1 < len(s.segments) && s.segments[i+1].start <= floor+1 {
			if err := s.fsys.Remove(filepath.Join(s.dir, seg.name)); err != nil {
				return s.fail(err)
			}
			continue
		}
		keep = append(keep, seg)
	}
	s.segments = keep
	return nil
}

// Close closes the tail segment. Appends are fsynced individually, so
// Close flushes nothing; it only releases the handle. Idempotent.
func (s *Store) Close() error {
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}
