package pram

import "testing"

// Micro-benchmarks for the simulator primitives; these put numbers on
// the "simulation overhead" column of the engineering discussion.

func BenchmarkStep(b *testing.B) {
	m := New()
	var sink int64
	for i := 0; i < b.N; i++ {
		m.Step(1024, func(p int) {
			sink += int64(p)
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
