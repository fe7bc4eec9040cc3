package pram

import (
	"testing"
	"testing/quick"
)

// TestStepRunsEveryProcessorOnce pins the schedule every ARBITRARY
// resolution rests on: each processor runs exactly once, in ascending
// index order.
func TestStepRunsEveryProcessorOnce(t *testing.T) {
	for _, procs := range []int{0, 1, 5000} {
		var order []int
		New().Step(procs, func(i int) { order = append(order, i) })
		if len(order) != procs {
			t.Fatalf("procs=%d: Step ran %d processors", procs, len(order))
		}
		for i, p := range order {
			if p != i {
				t.Fatalf("procs=%d: position %d ran processor %d", procs, i, p)
			}
		}
	}
}

// TestStepRangeTilesEveryProcessorOnce checks that a range step hands
// its body one range covering every processor, and none when there are
// no processors.
func TestStepRangeTilesEveryProcessorOnce(t *testing.T) {
	for _, procs := range []int{0, 1, 5000} {
		calls := 0
		New().StepRange(procs, func(lo, hi int) {
			calls++
			if lo != 0 || hi != procs {
				t.Errorf("procs=%d: range [%d, %d), want [0, %d)", procs, lo, hi, procs)
			}
		})
		if want := min(procs, 1); calls != want {
			t.Errorf("procs=%d: StepRange made %d calls, want %d", procs, calls, want)
		}
	}
}

func TestNestedStepRange(t *testing.T) {
	// A step body may run a step of its own; both levels must still
	// cover their index spaces and be charged.
	m := New()
	const outer, inner = 4096, 3000
	total := 0
	m.StepRange(outer, func(lo, hi int) {
		m.StepRange(inner, func(lo, hi int) { total += hi - lo })
		total += hi - lo
	})
	if total != outer+inner {
		t.Errorf("nested steps covered %d processors, want %d", total, outer+inner)
	}
	if s := m.Stats(); s.Steps != 2 || s.Work != outer+inner {
		t.Errorf("nested steps charged %+v, want 2 steps of %d work", s, outer+inner)
	}
}

// TestConflictingWritesResolveByProcessorOrder pins the two resolution
// rules the package doc states: an unconditional store leaves the
// highest-index writer's value, a guarded check-then-store the
// lowest-index one's.
func TestConflictingWritesResolveByProcessorOrder(t *testing.T) {
	m := New()
	var plain, guarded int32 = -1, -1
	m.Step(100, func(i int) {
		plain = int32(i)
		if guarded == -1 {
			guarded = int32(i)
		}
	})
	if plain != 99 || guarded != 0 {
		t.Errorf("plain = %d, guarded = %d; want 99 and 0", plain, guarded)
	}
}

func TestStepRangeChargesLikeStep(t *testing.T) {
	for _, procs := range []int{0, 10, 3000} {
		a, b := New(), New()
		a.Step(procs, func(int) {})
		b.StepRange(procs, func(int, int) {})
		if a.Stats() != b.Stats() {
			t.Errorf("procs=%d: StepRange charged %+v, Step %+v", procs, b.Stats(), a.Stats())
		}
	}
}

func TestSnapshot32ReusesBuffer(t *testing.T) {
	m := New()
	src := []int32{3, 1, 4, 1, 5}
	a := m.Snapshot32(src)
	src[0] = 9
	if a[0] != 3 || len(a) != 5 {
		t.Fatalf("snapshot = %v, want a copy of the old cells", a)
	}
	b := m.Snapshot32(src[:3])
	if &a[0] != &b[0] || len(b) != 3 || b[0] != 9 {
		t.Fatalf("smaller snapshot did not reuse the buffer: %v", b)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Snapshot32(src) }); allocs != 0 {
		t.Errorf("Snapshot32 allocated %.0f times on a warm buffer", allocs)
	}
}

func TestStepAccounting(t *testing.T) {
	m := New()
	m.Step(10, func(int) {})
	m.Step(100, func(int) {})
	m.StepCost(3, 7, func(int) {})
	s := m.Stats()
	if s.Steps != 1+1+3 {
		t.Errorf("steps = %d, want 5", s.Steps)
	}
	if s.Work != 10+100+21 {
		t.Errorf("work = %d, want 131", s.Work)
	}
	if s.MaxProcs != 100 {
		t.Errorf("maxProcs = %d, want 100", s.MaxProcs)
	}
}

func TestStepN(t *testing.T) {
	m := New()
	var count int64
	m.StepN(1000, 37, func(lo, hi int) { count += int64(hi - lo) })
	if count != 37 {
		t.Errorf("iterations = %d, want 37", count)
	}
	s := m.Stats()
	if s.Work != 1000 || s.Steps != 1 || s.MaxProcs != 1000 {
		t.Errorf("accounting wrong: %+v", s)
	}
}

// TestStepNChargesWithoutHostWork pins the charged-vs-host split: an
// empty frontier runs no host iteration but charges the step in full,
// and a frontier runs each of its iterations exactly once.
func TestStepNChargesWithoutHostWork(t *testing.T) {
	m := New()
	m.StepN(500, 0, func(int, int) { t.Fatal("an empty frontier must not run") })
	if s := m.Stats(); s.Steps != 1 || s.Work != 500 || s.MaxProcs != 500 {
		t.Errorf("empty frontier charged %+v, want one step of 500 processors", s)
	}
	const iters = 5000
	seen := make([]int32, iters)
	m.StepN(10*iters, iters, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times, want once", i, c)
		}
	}
	if s := m.Stats(); s.Steps != 2 || s.Work != 500+10*iters || s.MaxProcs != 10*iters {
		t.Errorf("accounting wrong: %+v", s)
	}
}

func TestZeroProcsStep(t *testing.T) {
	m := New()
	m.Step(0, func(int) { t.Fatal("must not run") })
	if m.Stats().Steps != 1 {
		t.Error("zero-proc step still costs one time unit")
	}
}

func TestAllocFree(t *testing.T) {
	m := New()
	m.Alloc(100)
	m.Alloc(50)
	m.Free(120)
	s := m.Stats()
	if s.Space != 30 || s.MaxSpace != 150 {
		t.Errorf("space=%d maxSpace=%d, want 30, 150", s.Space, s.MaxSpace)
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.Step(5, func(int) {})
	m.Alloc(9)
	m.Reset()
	if s := m.Stats(); s != (Stats{}) {
		t.Errorf("stats not zeroed: %+v", s)
	}
}

func TestCoinDeterministic(t *testing.T) {
	f := func(seed, round, index uint64) bool {
		c := Coin{Seed: seed}
		return c.U64(round, index) == c.U64(round, index) &&
			c.Float(round, index) >= 0 && c.Float(round, index) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinBernoulliBounds(t *testing.T) {
	c := Coin{Seed: 7}
	if c.Bernoulli(1, 1, 0) {
		t.Error("p=0 must be false")
	}
	if !c.Bernoulli(1, 1, 1) {
		t.Error("p=1 must be true")
	}
}

func TestCoinBernoulliFrequency(t *testing.T) {
	c := Coin{Seed: 11}
	const trials = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if c.Bernoulli(3, uint64(i), p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if got < p-0.01 || got > p+0.01 {
			t.Errorf("Bernoulli(%.1f) frequency %.4f", p, got)
		}
	}
}

func TestCoinIntnRange(t *testing.T) {
	c := Coin{Seed: 3}
	for i := 0; i < 1000; i++ {
		v := c.Intn(1, uint64(i), 17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestMaxCombine(t *testing.T) {
	var cell int64
	MaxCombine64(&cell, 5)
	MaxCombine64(&cell, 3)
	MaxCombine64(&cell, 9)
	if cell != 9 {
		t.Errorf("max = %d, want 9", cell)
	}
}

func TestPackUnpackLevelVertex(t *testing.T) {
	f := func(level int32, vertex int32) bool {
		if level < 0 {
			level = -level
		}
		l, v := UnpackLevelVertex(PackLevelVertex(level, vertex))
		return l == level && v == vertex
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackOrdering(t *testing.T) {
	// Higher level must always pack greater regardless of vertex ids.
	lo := PackLevelVertex(2, 1<<30)
	hi := PackLevelVertex(3, 0)
	if lo >= hi {
		t.Error("packing does not order by level first")
	}
}

func TestSplitMix64NotIdentity(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
}
