// Package pram simulates the ARBITRARY CRCW PRAM of the paper (§1.1):
// a set of processors with O(1) private memory each, a large common
// memory, and synchronous constant-time steps. Any number of processors
// may read or write the same common-memory cell concurrently; when
// several write the same cell in one step, an arbitrary one succeeds.
//
// The simulator is coarse-grained: Machine.Step(procs, f) runs one
// PRAM time unit by evaluating f(i) for every processor index i over
// a fixed pool of worker goroutines, with a barrier at the end of the
// step; Machine.StepRange is the same step with the processors handed
// out as contiguous index ranges. Concurrent writes inside a step
// must go through the atomic helpers in cells.go, which resolve them
// as follows: a write of the value the cell already holds is skipped,
// and otherwise the host's last writer wins. That is a legal
// ARBITRARY resolution, but not a deterministic one once there is
// more than one worker. The skip belongs to those concurrent-write
// helpers only: a cell with one writer per step, such as SHORTCUT's
// Parent[v], is written with a plain store, unchanged value or not.
// The machine accounts simulated time (steps), per-step processor
// usage, and total work, so experiments report model costs rather
// than host wall clock.
//
// What a step charges and what the host executes are separate:
// Machine.StepN charges its full processor count while the host runs
// only a frontier of them. The host may skip a processor only when
// that processor's body is a no-op in the step — a loop arc, a vertex
// that is not an ongoing root, a vote the reading step draws itself —
// and each call site says why its skipped processors are no-ops. A
// frontier is always ascending, so at New(1) the surviving processors
// run in the same order as the full sweep and every ARBITRARY write
// resolves as it would there.
package pram

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
)

// Machine is an ARBITRARY CRCW PRAM simulator with cost accounting.
// The zero value is not usable; call New.
type Machine struct {
	workers int

	// shard is the reusable claim state behind runSharded, so the
	// simulator's per-step hot loop doesn't allocate a fresh cursor
	// slice every Step. shardBusy guards it: a nested step (a step body
	// invoking another Step) finds it taken and falls back to a
	// stack-local Shard.
	shard     pool.Shard
	shardBusy atomic.Bool

	// snap is Snapshot32's reusable buffer.
	snap []int32

	steps    atomic.Int64 // simulated PRAM time units
	work     atomic.Int64 // sum over steps of processors used
	maxProcs atomic.Int64 // maximum processors used in a single step
	space    atomic.Int64 // currently allocated common-memory words
	maxSpace atomic.Int64 // peak allocated common-memory words
}

// New returns a machine executing steps over the given number of worker
// goroutines. workers <= 0 selects GOMAXPROCS. workers == 1 yields a
// deterministic sequential schedule (processor 0,1,2,… in order), which
// tests use to pin down exact behaviour.
func New(workers int) *Machine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Machine{workers: workers}
}

// Workers reports the size of the host worker pool.
func (m *Machine) Workers() int { return m.workers }

// Step executes one PRAM time unit with procs processors: f(i) is
// invoked exactly once for each i in [0, procs). All invocations of one
// step happen before Step returns (barrier semantics). Charging: one
// time unit, procs work.
func (m *Machine) Step(procs int, f func(i int)) {
	m.StepCost(1, procs, f)
}

// StepCost is Step but charges cost time units (used where the paper
// charges a known super-constant cost for a black-box primitive, e.g.
// approximate compaction's O(log* n)).
func (m *Machine) StepCost(cost, procs int, f func(i int)) {
	m.charge(cost, procs)
	m.run(procs, seqProcs, perIndex(f))
}

// StepRange is Step with the processors handed out in contiguous index
// ranges: f(lo, hi) runs processors lo..hi-1, and the ranges of one
// step tile [0, procs) exactly once. It charges exactly what Step
// charges (one time unit, procs work); the range form only saves the
// host a closure call per processor in the hot steps.
func (m *Machine) StepRange(procs int, f func(lo, hi int)) {
	m.charge(1, procs)
	m.run(procs, seqProcs, f)
}

// StepN executes one PRAM time unit whose model cost is chargedProcs
// processors, while the host realizes it as iters loop iterations,
// handed out as contiguous ranges like StepRange: f(lo, hi) runs
// iterations lo..hi-1, and the ranges tile [0, iters) exactly once.
// The iterations are the step's host frontier, for instance the live
// arcs of a store whose loops were dropped, the ongoing roots of a
// vertex step, or one table owner standing for the paper's processor
// per table-cell pair. Every processor outside the frontier must be a
// no-op in this step (see the package doc); iters may be 0 when the
// host folds the step's work into a later step.
func (m *Machine) StepN(chargedProcs, iters int, f func(lo, hi int)) {
	m.charge(1, chargedProcs)
	m.run(iters, seqIters, f)
}

// Below these sizes a step runs on the calling goroutine: fanning out
// costs more than the step. StepN's iterations are frontier entries or
// table owners and often heavier than one processor, so its threshold
// is lower.
const (
	seqProcs = 2048
	seqIters = 256
)

// charge accounts one step of cost time units on procs processors.
func (m *Machine) charge(cost, procs int) {
	if cost < 0 || procs < 0 {
		panic(fmt.Sprintf("pram: negative cost %d or procs %d", cost, procs))
	}
	m.steps.Add(int64(cost))
	m.work.Add(int64(cost) * int64(procs))
	for {
		old := m.maxProcs.Load()
		if int64(procs) <= old || m.maxProcs.CompareAndSwap(old, int64(procs)) {
			break
		}
	}
}

// perIndex adapts a per-processor body to the range executor.
func perIndex(f func(i int)) func(lo, hi int) {
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	}
}

// run is the one executor behind every step: it evaluates f over
// [0, total), on the calling goroutine when the machine has one worker
// or total is below seq, and through runSharded otherwise.
func (m *Machine) run(total, seq int, f func(lo, hi int)) {
	if total == 0 {
		return
	}
	if m.workers == 1 || total < seq {
		f(0, total)
		return
	}
	m.runSharded(total, f)
}

// runSharded fans f over [0, total) on per-step goroutines, claiming
// chunks through a locality-aware shard (internal/pool) and calling f
// once per claimed chunk: each worker sweeps a sticky home range of the
// processor index space first and steals from the others after — the
// same scheduler the native and incremental engines run on, so the
// spanning backend's tree-shortcut sweeps get the same range affinity.
// The worker count is capped at total so a step smaller than the pool
// never spawns goroutines whose home range would be empty. The
// machine's reusable shard (cursor slice and all) serves the common
// non-nested case; a nested step (a step body invoking another Step)
// finds shardBusy taken and runs on a stack-local Shard instead.
func (m *Machine) runSharded(total int, f func(lo, hi int)) {
	workers := m.workers
	if workers > total {
		workers = total
	}
	sh := &m.shard
	owned := m.shardBusy.CompareAndSwap(false, true)
	var nested pool.Shard
	if !owned {
		sh = &nested
	}
	sh.Init(total, 0, workers, true, func(_, lo, hi int) bool {
		f(lo, hi)
		return true
	})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sh.Work(w)
		}(w)
	}
	wg.Wait()
	if owned {
		m.shardBusy.Store(false)
	}
}

// Snapshot32 copies src into the machine's reusable snapshot buffer
// and returns the copy: the read phase of a step whose processors must
// all see the cells as they were before any of them writes (SHORTCUT
// reads the old parents while rewriting them). The copy stays valid
// until the next Snapshot32 call on this machine; one buffer per run,
// sized by its largest snapshot, replaces an n-word allocation per
// call. Host-side, between steps; not safe for concurrent use.
func (m *Machine) Snapshot32(src []int32) []int32 {
	if cap(m.snap) < len(src) {
		m.snap = make([]int32, len(src))
	}
	dst := m.snap[:len(src)]
	copy(dst, src)
	return dst
}

// ChargeSteps adds time units without running processors. Used when an
// algorithm performs a constant number of bookkeeping sub-steps that
// the host executes inline.
func (m *Machine) ChargeSteps(n int) { m.steps.Add(int64(n)) }

// Alloc records the allocation of words of common memory (a processor
// block in the paper's terminology) and updates the peak.
func (m *Machine) Alloc(words int) {
	now := m.space.Add(int64(words))
	for {
		old := m.maxSpace.Load()
		if now <= old || m.maxSpace.CompareAndSwap(old, now) {
			break
		}
	}
}

// Free records the release of words of common memory.
func (m *Machine) Free(words int) { m.space.Add(-int64(words)) }

// Stats is a snapshot of the machine's cost counters.
type Stats struct {
	Steps    int64 // simulated PRAM time
	Work     int64 // Σ steps × processors
	MaxProcs int64 // peak processors in one step
	Space    int64 // currently allocated common-memory words
	MaxSpace int64 // peak allocated common-memory words
}

// Stats returns a snapshot of the cost counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Steps:    m.steps.Load(),
		Work:     m.work.Load(),
		MaxProcs: m.maxProcs.Load(),
		Space:    m.space.Load(),
		MaxSpace: m.maxSpace.Load(),
	}
}

// Reset zeroes all counters; the worker pool size is kept.
func (m *Machine) Reset() {
	m.steps.Store(0)
	m.work.Store(0)
	m.maxProcs.Store(0)
	m.space.Store(0)
	m.maxSpace.Store(0)
}
