package pram

import (
	"sync/atomic"
	"testing"
)

// Micro-benchmarks for the simulator primitives; these put numbers on
// the "simulation overhead" column of the engineering discussion.

func BenchmarkStepSequential(b *testing.B) {
	m := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		m.Step(1024, func(p int) {
			atomic.AddInt64(&sink, int64(p))
		})
	}
}

// BenchmarkStepParallel times the executor itself: the range body does
// nothing, so the figure is the per-step fan-out, chunk claim and
// barrier cost a parallel step pays before any processor's work.
func BenchmarkStepParallel(b *testing.B) {
	m := New(0)
	for i := 0; i < b.N; i++ {
		m.StepRange(1<<16, func(lo, hi int) {})
	}
}

// BenchmarkSharedFlag is the contended case: every processor raises the
// same flag through Store64, as SHORTCUT's "some parent changed" and
// HasNonLoop's flag do.
func BenchmarkSharedFlag(b *testing.B) {
	m := New(0)
	var flag int64
	for i := 0; i < b.N; i++ {
		m.Step(1<<16, func(int) {
			Store64(&flag, 1)
		})
	}
}

func BenchmarkCoinBernoulli(b *testing.B) {
	c := Coin{Seed: 1}
	for i := 0; i < b.N; i++ {
		c.Bernoulli(3, uint64(i), 0.25)
	}
}

func BenchmarkMaxCombine(b *testing.B) {
	var cell int64
	for i := 0; i < b.N; i++ {
		MaxCombine64(&cell, int64(i))
	}
}
