// Sharded work scheduling: the grain-claim loop that used to be
// copy-pasted into every parallel engine (native sweep, incremental
// span union and publish flatten, the parallel loader's chunk fan-out)
// now lives here, with two upgrades the copies never had:
//
//   - Adaptive grain sizing. The old engines hard-coded grain = 4096.
//     That is the right ceiling for huge inputs (small enough to
//     balance skewed chunks) but wildly too coarse for small ones: a
//     100k-item sweep over 8 workers is only 24 claims at 4096, so one
//     slow worker strands an eighth of the input. AdaptiveGrain derives
//     the grain from total/workers with an amortization floor (a claim
//     must cover enough items to pay for its atomic add) and that same
//     load-balance ceiling.
//
//   - Sticky range-to-worker affinity. Each worker owns a
//     deterministic contiguous home range of the index space
//     [r*total/n, (r+1)*total/n) and sweeps it first every sweep, so
//     across the sweeps of a solve or a stream of batches, the same
//     label/parent/span cache lines keep landing in the same core's
//     cache. Only after its home range is exhausted does a worker
//     steal — from the most loaded remaining range, the one with the
//     most unclaimed items — so skew still cannot strand work, and the
//     thieves pile onto the range that actually needs the help.
//
// A Shard is plain value state (no goroutines, no channels): Init it,
// then have each participating worker call Work. Pool.Sharded wires
// this to the pool's broadcast barrier. The PRAM simulator does not
// use it: it runs every step on one host thread.
package pool

import (
	"sync/atomic"

	"repro/internal/obs"
)

const (
	// MinGrain is the amortization floor: the fewest items a claim may
	// cover, so the shared cursor's atomic add is paid for by real work.
	MinGrain = 64
	// MaxGrain is the load-balance ceiling — the grain both engines
	// hard-coded before this scheduler existed: large enough to
	// amortize the atomic add, small enough that a skewed chunk
	// (a hub vertex's arcs, a long path compression) cannot strand a
	// big contiguous slab behind one worker.
	MaxGrain = 4096
	// chunksPerRange is how many claims a worker's home range splits
	// into at adaptive grain: enough that stealing can rebalance a
	// slow range, few enough that the cursor stays cheap.
	chunksPerRange = 8
)

// Sharded-run metrics: how often exhausted workers cross into another
// worker's home range (high steal rates mean skew or a grain set too
// coarse), and the grain of the most recent run (0 before any run;
// watch it when tuning -grain).
var (
	mSteals = obs.Default.Counter("pramcc_pool_steals_total",
		"chunks claimed from another worker's home range after the claimer's own range was exhausted")
	mGrain = obs.Default.Gauge("pramcc_pool_grain",
		"items per cursor claim (grain) of the most recent sharded run")
)

// AdaptiveGrain derives the claim size for a sweep of total items over
// the given worker count: total/(workers*chunksPerRange), clamped to
// [MinGrain, MaxGrain].
//
//pramcc:zeroalloc
func AdaptiveGrain(total, workers int) int {
	if workers < 1 {
		workers = 1
	}
	g := total / (workers * chunksPerRange)
	if g < MinGrain {
		g = MinGrain
	}
	if g > MaxGrain {
		g = MaxGrain
	}
	return g
}

// padCursor is one range's claim cursor on its own cache line, so
// worker A hammering its home cursor never invalidates the line worker
// B's cursor lives on (the false-sharing failure mode that a plain
// []atomic.Int64 would reintroduce).
type padCursor struct {
	c atomic.Int64
	_ [56]byte
}

// Shard is the claim state for one parallel sweep of [0, total):
// per-range cache-line-padded cursors plus the job to run on each
// claimed chunk. The zero value is ready for Init; the cursor slice is
// reused across Inits (grow-or-reuse), so a long-lived owner performs
// no steady-state allocation.
//
// Init-then-Work is one sweep: Init from the coordinating goroutine,
// then Work from each participating worker. A Shard must not be
// re-Init'ed while workers are inside Work.
type Shard struct {
	total   int
	grain   int
	ranges  int
	job     func(worker, lo, hi int) bool
	cursors []padCursor
}

// Init arms the shard for one sweep of [0, total) by the given worker
// count. grain <= 0 selects AdaptiveGrain. Worker w's home range is
// [w*total/workers, (w+1)*total/workers). job is called on contiguous
// chunks [lo, hi); returning false stops that worker's claim loop (the
// per-chunk ctx-cancellation contract — other workers observe the same
// condition through their own job calls).
//
//pramcc:zeroalloc
func (s *Shard) Init(total, grain, workers int, job func(worker, lo, hi int) bool) {
	if workers < 1 {
		workers = 1
	}
	if grain <= 0 {
		grain = AdaptiveGrain(total, workers)
	}
	s.total, s.grain, s.ranges, s.job = total, grain, workers, job
	if cap(s.cursors) < workers {
		//pramcc:allow zeroalloc -- grow-or-reuse contract: allocates only when the worker count grows, never per sweep
		s.cursors = make([]padCursor, workers)
	}
	s.cursors = s.cursors[:workers]
	for r := 0; r < workers; r++ {
		s.cursors[r].c.Store(int64(s.rangeLo(r)))
	}
	mGrain.Set(int64(grain))
}

// Grain returns the grain Init settled on (after adaptive derivation).
func (s *Shard) Grain() int { return s.grain }

// rangeLo is the first index of range r; ranges partition [0, total)
// into s.ranges near-equal contiguous pieces.
//
//pramcc:zeroalloc
func (s *Shard) rangeLo(r int) int { return r * s.total / s.ranges }

//pramcc:zeroalloc
func (s *Shard) rangeHi(r int) int { return (r + 1) * s.total / s.ranges }

// Work is one worker's claim loop: drain the home range first, then
// repeatedly steal from the most loaded remaining range — the one
// whose cursor is furthest from its end — until every range is
// drained. worker must be below the worker count given to Init, and
// names the home range. Safe to call concurrently from s's worker set
// after one Init.
//
//pramcc:zeroalloc
func (s *Shard) Work(worker int) {
	n := s.ranges
	if !s.claimRange(worker, worker, false) {
		return
	}
	for n > 1 {
		// Victim selection: the range with the most unclaimed items.
		// The cursor loads race with other claimers, but a stale read
		// only misdirects one steal round — claimRange re-reads the
		// cursor on every claim, so exactly-once coverage never depends
		// on this scan.
		victim, best := -1, 0
		for r := 0; r < n; r++ {
			if r == worker {
				continue
			}
			if rem := s.rangeHi(r) - int(s.cursors[r].c.Load()); rem > best {
				victim, best = r, rem
			}
		}
		if victim < 0 {
			return
		}
		if !s.claimRange(worker, victim, true) {
			return
		}
	}
}

// claimRange drains range r chunk by chunk; stolen marks claims made
// outside the worker's home range. Returns false when the job asked to
// stop.
//
//pramcc:zeroalloc
func (s *Shard) claimRange(worker, r int, stolen bool) bool {
	hi := s.rangeHi(r)
	grain := int64(s.grain)
	for {
		lo := int(s.cursors[r].c.Add(grain) - grain)
		if lo >= hi {
			return true
		}
		chunkHi := lo + s.grain
		if chunkHi > hi {
			chunkHi = hi
		}
		if stolen {
			mSteals.Inc()
		}
		if !s.job(worker, lo, chunkHi) {
			return false
		}
	}
}

// Sharded runs job over contiguous chunks of [0, total) on p's
// workers at the given grain (0 = adaptive): each worker sweeps its
// sticky home range first, then steals. job returning false stops that
// worker's claiming (per-chunk cancellation). Tiny sweeps (one grain or
// fewer, or a one-worker pool) run inline on the caller, skipping the
// broadcast barrier.
//
// Like Run, a pool runs one sharded sweep at a time; callers
// coordinate rounds themselves.
//
//pramcc:zeroalloc
func (p *Pool) Sharded(total, grain int, job func(worker, lo, hi int) bool) {
	if total <= 0 {
		return
	}
	w := len(p.jobs)
	p.shard.Init(total, grain, w, job)
	if w == 1 || total <= p.shard.grain {
		mRuns.Inc()
		p.shard.Work(0)
		return
	}
	p.Run(p.shardWork)
}
