package pramcc

import (
	"math/rand"
	"testing"
	"time"

	"repro/graph"
)

// TestNewResultWallExcludesCounting injects a large label slice (4M
// entries, all distinct — the worst case for counting) and checks that
// the wall duration passed in is returned untouched: the regression
// was a struct literal evaluating countLabels(...) before
// time.Since(start), charging the O(n) counting pass to Stats.Wall.
func TestNewResultWallExcludesCounting(t *testing.T) {
	labels := make([]int32, 1<<22)
	for i := range labels {
		labels[i] = int32(i)
	}
	const wall = 123 * time.Microsecond
	res := newResult(wall, labels, Stats{Backend: BackendNative, Workers: 4})
	if res.Stats.Wall != wall {
		t.Fatalf("Stats.Wall = %v, want the injected %v: counting leaked into the measurement", res.Stats.Wall, wall)
	}
	if res.NumComponents != len(labels) {
		t.Fatalf("NumComponents = %d, want %d", res.NumComponents, len(labels))
	}
	if res.Stats.Backend != BackendNative || res.Stats.Workers != 4 {
		t.Fatalf("stats not preserved: %+v", res.Stats)
	}
}

// TestCountLabelsMatchesReference cross-checks the O(n) slice-indexed
// count against the map-based reference on random in-range labelings
// and on the degenerate shapes. One seen buffer is carried across all
// calls, so a reused buffer's stale marks must not leak into a count.
func TestCountLabelsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var seen []bool
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		labels := make([]int32, n)
		reps := 1 + rng.Intn(n)
		for i := range labels {
			labels[i] = int32(rng.Intn(reps))
		}
		if got, want := countLabels(labels, &seen), countLabelsGeneric(labels); got != want {
			t.Fatalf("n=%d: countLabels=%d, reference=%d", n, got, want)
		}
	}
	if got := countLabels(nil, &seen); got != 0 {
		t.Fatalf("countLabels(nil) = %d", got)
	}
	if got := countLabels([]int32{0, 0, 0}, &seen); got != 1 {
		t.Fatalf("all-same = %d", got)
	}
	// Out-of-range labels must not panic: the generic fallback counts
	// them (no current backend produces these).
	if got := countLabels([]int32{5, -1, 5}, &seen); got != 2 {
		t.Fatalf("out-of-range fallback = %d", got)
	}
}

// TestComponentsWallIsPositive: the measured wall must still be a real
// measurement on every backend after the reordering.
func TestComponentsWallIsPositive(t *testing.T) {
	g := graph.Gnm(2000, 8000, 1)
	for _, b := range []Backend{BackendSimulated, BackendNative, BackendIncremental} {
		res, err := Components(g, WithBackend(b))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if res.Stats.Wall <= 0 {
			t.Fatalf("%v: Stats.Wall = %v, want > 0", b, res.Stats.Wall)
		}
	}
}
