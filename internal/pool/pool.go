// Package pool provides the reusable fixed-size worker pool shared by
// every parallel engine in the module: the native one-shot engine, the
// incremental streaming engine, and the parallel graph loader. It lives
// below all of them (and below package graph) so that none of those
// packages need to import each other for a goroutine pool.
//
// A pool has two entry points: Run broadcasts one job to every worker,
// and Sharded(total, grain, job) splits [0, total) into chunks on the
// locality-aware grain-claim scheduler (sticky per-worker home ranges,
// then stealing; grain 0 sizes the claims adaptively). Every caller
// shares that one scheduler mode.
package pool

import (
	"sync"

	"repro/internal/obs"
)

// Worker-pool occupancy metrics: live workers across every pool in the
// process, how many of them are inside a sharded run right now, and
// how many runs have been dispatched. Plain atomic adds on the Run
// barrier path — noise next to the channel sends the barrier already
// pays, and allocation-free by the obs contract.
var (
	mWorkers = obs.Default.Gauge("pramcc_pool_workers",
		"live worker goroutines across all worker pools in the process")
	mBusy = obs.Default.Gauge("pramcc_pool_busy_workers",
		"pool workers currently executing a sharded parallel run")
	mRuns = obs.Default.Counter("pramcc_pool_runs_total",
		"sharded parallel runs dispatched to worker pools")
)

// Pool is a reusable fixed-size worker pool. The workers are spawned
// once and fed one job per round via per-worker channels, instead of
// spawning a fresh goroutine set for every parallel step. Run
// broadcasts the job to all workers and blocks until every worker has
// returned.
type Pool struct {
	jobs      []chan func(worker int)
	wg        sync.WaitGroup
	closeOnce sync.Once

	// shard is the pool-owned claim state behind Sharded, with its
	// cursors sized for the worker count and shardWork pre-bound once
	// here, so dispatching a sharded sweep allocates nothing, the first
	// one included.
	shard     Shard
	shardWork func(worker int)
}

// New spawns a pool of the given worker count (must be > 0).
func New(workers int) *Pool {
	p := &Pool{jobs: make([]chan func(worker int), workers)}
	p.shard.cursors = make([]padCursor, workers)
	p.shardWork = p.shard.Work
	for i := range p.jobs {
		ch := make(chan func(worker int))
		p.jobs[i] = ch
		go func(worker int, ch chan func(worker int)) {
			for f := range ch {
				f(worker)
				p.wg.Done()
			}
		}(i, ch)
	}
	mWorkers.Add(int64(workers))
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.jobs) }

// Run executes f once on every worker and waits for all of them.
//
//pramcc:zeroalloc
func (p *Pool) Run(f func(worker int)) {
	mRuns.Inc()
	mBusy.Add(int64(len(p.jobs)))
	p.wg.Add(len(p.jobs))
	for _, ch := range p.jobs {
		ch <- f
	}
	p.wg.Wait()
	mBusy.Add(int64(-len(p.jobs)))
}

// Close terminates the worker goroutines. The pool must be idle.
// Close is idempotent: an owner (a pramcc.Solver's engine, a loader)
// may be closed from more than one cleanup path.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		for _, ch := range p.jobs {
			close(ch)
		}
		mWorkers.Add(int64(-len(p.jobs)))
	})
}
