package pram

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestStepRunsEveryProcessorOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		m := New(workers)
		const procs = 5000
		hits := make([]int32, procs)
		m.Step(procs, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: processor %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestStepRangeTilesEveryProcessorOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, procs := range []int{0, 1, 2047, 2048, 5000, 1 << 16} {
			m := New(workers)
			hits := make([]int32, procs)
			var calls atomic.Int64
			m.StepRange(procs, func(lo, hi int) {
				if lo >= hi || lo < 0 || hi > procs {
					t.Errorf("workers=%d procs=%d: bad range [%d, %d)", workers, procs, lo, hi)
					return
				}
				calls.Add(1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d procs=%d: processor %d ran %d times", workers, procs, i, h)
				}
			}
			if (workers == 1 || procs < 2048) && procs > 0 && calls.Load() != 1 {
				t.Errorf("workers=%d procs=%d: a sequential step ran %d ranges, want 1", workers, procs, calls.Load())
			}
		}
	}
}

func TestStepRangeChargesLikeStep(t *testing.T) {
	for _, procs := range []int{0, 10, 3000} {
		a, b := New(2), New(2)
		a.Step(procs, func(int) {})
		b.StepRange(procs, func(int, int) {})
		if a.Stats() != b.Stats() {
			t.Errorf("procs=%d: StepRange charged %+v, Step %+v", procs, b.Stats(), a.Stats())
		}
	}
}

func TestNestedStepRange(t *testing.T) {
	// A step body that runs a step of its own takes the nested-shard
	// fallback; both levels must still cover their index spaces.
	m := New(2)
	const outer, inner = 4096, 3000
	var total atomic.Int64
	m.StepRange(outer, func(lo, hi int) {
		if lo == 0 {
			m.StepRange(inner, func(lo, hi int) { total.Add(int64(hi - lo)) })
		}
		total.Add(int64(hi - lo))
	})
	if got := total.Load(); got != outer+inner {
		t.Errorf("nested steps covered %d processors, want %d", got, outer+inner)
	}
}

func TestStoreSkipsValueAlreadyHeld(t *testing.T) {
	var c32 int32 = 7
	var c64 int64 = 7
	Store32(&c32, 7)
	Store64(&c64, 7)
	if c32 != 7 || c64 != 7 {
		t.Fatalf("same-value store changed the cell: %d, %d", c32, c64)
	}
	Store32(&c32, 9)
	Store64(&c64, -3)
	if c32 != 9 || c64 != -3 {
		t.Fatalf("store lost: %d, %d", c32, c64)
	}
	// Many processors raising one flag: the cell ends holding the
	// value they all wrote.
	m := New(4)
	var flag int64
	m.Step(1<<14, func(int) { Store64(&flag, 1) })
	if flag != 1 {
		t.Fatalf("flag = %d, want 1", flag)
	}
}

func TestSnapshot32ReusesBuffer(t *testing.T) {
	m := New(1)
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
	m := New(1)
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
	m := New(4)
	var count int64
	m.StepN(1000, 37, func(lo, hi int) { atomic.AddInt64(&count, int64(hi-lo)) })
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
// and a frontier above the sequential threshold tiles its iterations
// exactly once on a sharded machine.
func TestStepNChargesWithoutHostWork(t *testing.T) {
	m := New(2)
	m.StepN(500, 0, func(int, int) { t.Fatal("an empty frontier must not run") })
	if s := m.Stats(); s.Steps != 1 || s.Work != 500 || s.MaxProcs != 500 {
		t.Errorf("empty frontier charged %+v, want one step of 500 processors", s)
	}
	const iters = 5000
	seen := make([]int32, iters)
	m.StepN(10*iters, iters, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
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
	m := New(4)
	m.Step(0, func(int) { t.Fatal("must not run") })
	if m.Stats().Steps != 1 {
		t.Error("zero-proc step still costs one time unit")
	}
}

func TestAllocFree(t *testing.T) {
	m := New(1)
	m.Alloc(100)
	m.Alloc(50)
	m.Free(120)
	s := m.Stats()
	if s.Space != 30 || s.MaxSpace != 150 {
		t.Errorf("space=%d maxSpace=%d, want 30, 150", s.Space, s.MaxSpace)
	}
}

func TestReset(t *testing.T) {
	m := New(1)
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

func TestConcurrentMaxCombine(t *testing.T) {
	m := New(8)
	var cell int64
	m.Step(10000, func(i int) {
		MaxCombine64(&cell, int64(i))
	})
	if cell != 9999 {
		t.Errorf("concurrent max = %d, want 9999", cell)
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
