// Package pram simulates the ARBITRARY CRCW PRAM of the paper (§1.1):
// a set of processors with O(1) private memory each, a large common
// memory, and synchronous constant-time steps. Any number of processors
// may read or write the same common-memory cell concurrently; when
// several write the same cell in one step, an arbitrary one succeeds.
//
// The simulator runs on one host thread: Machine.Step(procs, f) runs
// one PRAM time unit by evaluating f(i) on the calling goroutine for
// i = 0, 1, …, procs-1 in that order, and Machine.StepRange is the same
// step handed to its body as one index range. Host order fixes every
// ARBITRARY resolution, so a seeded run is bit-identical on every host:
//   - an unconditional store leaves the highest-index writer's value;
//   - a guarded check-then-store (write only if the cell still holds
//     its old value) leaves the lowest-index writer's value.
//
// Both are legal ARBITRARY resolutions. Processors are run one after
// another rather than in lockstep, so a step's reads may see writes
// made earlier in the same step by lower-index processors. A step
// whose processors must all see the cells as they were before it
// reads a copy instead (Snapshot32; SHORTCUT reads the old parents
// while rewriting them). Cells are plain Go memory; the helpers in
// cells.go only pack and combine values.
//
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
// frontier is always ascending, so the surviving processors run in the
// same order as the full sweep and every ARBITRARY write resolves as
// it would there.
package pram

import "fmt"

// Machine is an ARBITRARY CRCW PRAM simulator with cost accounting.
// The zero value is not usable; call New. A Machine is not safe for
// concurrent use.
type Machine struct {
	// snap is Snapshot32's reusable buffer.
	snap []int32

	steps    int64 // simulated PRAM time units
	work     int64 // sum over steps of processors used
	maxProcs int64 // maximum processors used in a single step
	space    int64 // currently allocated common-memory words
	maxSpace int64 // peak allocated common-memory words
}

// New returns a machine with zeroed cost counters.
func New() *Machine { return &Machine{} }

// Step executes one PRAM time unit with procs processors: f(i) is
// invoked exactly once for each i in [0, procs), in ascending order,
// before Step returns. Charging: one time unit, procs work.
func (m *Machine) Step(procs int, f func(i int)) {
	m.StepCost(1, procs, f)
}

// StepCost is Step but charges cost time units (used where the paper
// charges a known super-constant cost for a black-box primitive, e.g.
// approximate compaction's O(log* n)).
func (m *Machine) StepCost(cost, procs int, f func(i int)) {
	m.charge(cost, procs)
	for i := 0; i < procs; i++ {
		f(i)
	}
}

// StepRange is Step with the processors handed to f as one index
// range: f(0, procs) runs processors 0..procs-1 in order, and is not
// called when procs is 0. It charges exactly what Step charges (one
// time unit, procs work); the range form only saves the host a closure
// call per processor in the hot steps.
func (m *Machine) StepRange(procs int, f func(lo, hi int)) {
	m.StepN(procs, procs, f)
}

// StepN executes one PRAM time unit whose model cost is chargedProcs
// processors, while the host realizes it as iters loop iterations,
// handed to f as one range like StepRange: f(0, iters), not called
// when iters is 0. The iterations are the step's host frontier, for
// instance the live arcs of a store whose loops were dropped, the
// ongoing roots of a vertex step, or one table owner standing for the
// paper's processor per table-cell pair. Every processor outside the
// frontier must be a no-op in this step (see the package doc); iters
// may be 0 when the host folds the step's work into a later step.
func (m *Machine) StepN(chargedProcs, iters int, f func(lo, hi int)) {
	m.charge(1, chargedProcs)
	if iters > 0 {
		f(0, iters)
	}
}

// charge accounts one step of cost time units on procs processors.
func (m *Machine) charge(cost, procs int) {
	if cost < 0 || procs < 0 {
		panic(fmt.Sprintf("pram: negative cost %d or procs %d", cost, procs))
	}
	m.steps += int64(cost)
	m.work += int64(cost) * int64(procs)
	m.maxProcs = max(m.maxProcs, int64(procs))
}

// Snapshot32 copies src into the machine's reusable snapshot buffer
// and returns the copy: the read phase of a step whose processors must
// all see the cells as they were before any of them writes (SHORTCUT
// reads the old parents while rewriting them). The copy stays valid
// until the next Snapshot32 call on this machine; one buffer per run,
// sized by its largest snapshot, replaces an n-word allocation per
// call. Host-side, between steps.
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
func (m *Machine) ChargeSteps(n int) { m.steps += int64(n) }

// Alloc records the allocation of words of common memory (a processor
// block in the paper's terminology) and updates the peak.
func (m *Machine) Alloc(words int) {
	m.space += int64(words)
	m.maxSpace = max(m.maxSpace, m.space)
}

// Free records the release of words of common memory.
func (m *Machine) Free(words int) { m.space -= int64(words) }

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
		Steps:    m.steps,
		Work:     m.work,
		MaxProcs: m.maxProcs,
		Space:    m.space,
		MaxSpace: m.maxSpace,
	}
}

// Reset zeroes all counters.
func (m *Machine) Reset() {
	m.steps, m.work, m.maxProcs, m.space, m.maxSpace = 0, 0, 0, 0, 0
}
