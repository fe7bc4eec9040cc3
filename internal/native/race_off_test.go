//go:build !race

package native

// raceEnabled reports whether the race detector instruments this test
// build; its shadow-memory bookkeeping shows up in allocation counts,
// so the zero-allocation test only runs on uninstrumented builds.
const raceEnabled = false
