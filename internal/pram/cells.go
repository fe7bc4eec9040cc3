package pram

// Common-memory cells are plain Go slices and variables: the machine
// runs each step's processors one after another on one host thread
// (see the package doc), so a concurrent PRAM write is an ordinary
// store and a concurrent read an ordinary load. Several processors
// writing one cell in a step resolve by processor order: an
// unconditional store leaves the highest-index writer's value, and a
// guarded check-then-store (if cell == old { cell = v }) leaves the
// lowest-index writer's value. Both are legal ARBITRARY resolutions.
// The helpers below only pack and combine values.

// MaxCombine64 raises *cell to v if v is larger. The paper's MAXLINK
// needs "parent with maximum level among neighbours" in O(1) PRAM
// time, which §3.3 implements with a per-vertex array of O(log n)
// level slots plus one processor per slot pair. We realize the same
// reduction with a pack-max: callers pack (level << 32 | vertex) so a
// single max yields the argmax vertex. The charged PRAM cost stays
// O(1) per the paper.
func MaxCombine64(cell *int64, v int64) {
	if v > *cell {
		*cell = v
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
