package pram

import "sync/atomic"

// Atomic helpers giving common-memory cells ARBITRARY CRCW semantics.
// Within one Machine.Step, processors writing the same cell race. A
// helper's write of the value the cell already holds is skipped: the
// store would change nothing, and skipping it keeps thousands of
// processors raising one shared flag from bouncing its cache line
// between cores. Among the writes that do land, the host's last
// writer wins. Either way the cell ends holding a value some
// processor wrote, which is one legal arbitrary resolution (though
// not a deterministic one: with more than one worker the survivor
// depends on the host schedule). Reads of cells that may be written
// in the same step must use Load32/Load64 so the race is well-defined
// under the Go memory model. Cells only read in a step may be
// accessed directly, and so may a cell only one processor writes in a
// step (SHORTCUT's Parent[v]): such a write is a plain store and is
// not skipped when the value is unchanged.

// Store32 performs a concurrent write of v into cell (arbitrary wins);
// it stores only if the cell does not already hold v.
func Store32(cell *int32, v int32) {
	if atomic.LoadInt32(cell) != v {
		atomic.StoreInt32(cell, v)
	}
}

// Load32 performs a concurrent read of a cell.
func Load32(cell *int32) int32 { return atomic.LoadInt32(cell) }

// Store64 performs a concurrent write of v into cell (arbitrary wins);
// it stores only if the cell does not already hold v.
func Store64(cell *int64, v int64) {
	if atomic.LoadInt64(cell) != v {
		atomic.StoreInt64(cell, v)
	}
}

// Load64 performs a concurrent read of a cell.
func Load64(cell *int64) int64 { return atomic.LoadInt64(cell) }

// CAS32 performs a compare-and-swap on a cell. The PRAM model does not
// have CAS; it is used only to implement primitives the paper proves
// are O(1)-time on an ARBITRARY CRCW PRAM (see MaxCombine64).
func CAS32(cell *int32, old, new int32) bool {
	return atomic.CompareAndSwapInt32(cell, old, new)
}

// MaxCombine64 atomically raises *cell to v if v is larger. The paper's
// MAXLINK needs "parent with maximum level among neighbours" in O(1)
// PRAM time, which §3.3 implements with a per-vertex array of O(log n)
// level slots plus one processor per slot pair. We realize the same
// reduction with a pack-max: callers pack (level << 32 | vertex) so a
// single max yields the argmax vertex. The CAS loop is a host-machine
// execution detail; the charged PRAM cost stays O(1) per the paper.
func MaxCombine64(cell *int64, v int64) {
	for {
		old := atomic.LoadInt64(cell)
		if v <= old || atomic.CompareAndSwapInt64(cell, old, v) {
			return
		}
	}
}

// Fill32 sets every element of s to v (host-side initialization; charge
// separately if it corresponds to a PRAM step).
func Fill32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// Fill64 sets every element of s to v.
func Fill64(s []int64, v int64) {
	for i := range s {
		s[i] = v
	}
}

// PackLevelVertex packs a (level, vertex) pair so that integer max
// orders by level first and vertex id second.
func PackLevelVertex(level int32, vertex int32) int64 {
	return int64(level)<<32 | int64(uint32(vertex))
}

// UnpackLevelVertex reverses PackLevelVertex.
func UnpackLevelVertex(p int64) (level int32, vertex int32) {
	return int32(p >> 32), int32(uint32(p))
}
