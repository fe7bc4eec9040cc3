// Package forest holds fixtures for the ctxround analyzer. The
// package basename matches the targeted engine set, so its loops are
// held to the round-boundary contract; the shapes mirror an engine's
// round loop with and without its ctx.Err() check.
package forest

import (
	"context"
	"sync/atomic"
)

// Engine mirrors the real engine's sweep state.
type Engine struct {
	total  int
	cursor atomic.Int64
}

// Run keeps the ctx check at the top of the round loop — the shape the
// analyzer requires.
func (e *Engine) Run(ctx context.Context) (int, error) {
	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return rounds, err
		}
		rounds++
		if rounds > e.total {
			return rounds, nil
		}
	}
}

// RunNoCheck is Run with the ctx.Err() check deleted — the acceptance
// bug for this analyzer.
func (e *Engine) RunNoCheck(ctx context.Context) int {
	rounds := 0
	for { // want "never checks ctx"
		rounds++
		if rounds > e.total {
			return rounds
		}
	}
}

// Sweep is an exported entry point whose unbounded loop has no way to
// receive cancellation at all.
func (e *Engine) Sweep() int {
	n := 0
	for { // want "no context.Context"
		n++
		if n > e.total {
			return n
		}
	}
}

// Bounded runs a plain counter loop: near miss, no diagnostic.
func (e *Engine) Bounded(ctx context.Context) int {
	s := 0
	for i := 0; i < e.total; i++ {
		s += i
	}
	if err := ctx.Err(); err != nil {
		return -1
	}
	return s
}

// Bump is a CAS retry loop: near miss, exempt by shape.
func (e *Engine) Bump(ctx context.Context) error {
	for {
		old := e.cursor.Load()
		if e.cursor.CompareAndSwap(old, old+1) {
			return ctx.Err()
		}
	}
}

// Chunks checks ctx inside a worker closure: the closure is its own
// scope and passes because the loop references ctx.
func (e *Engine) Chunks(ctx context.Context, run func(func(int))) {
	run(func(int) {
		for ctx.Err() == nil {
			if int(e.cursor.Add(1)) >= e.total {
				return
			}
		}
	})
}

// ChunksNoCheck is the same closure with the ctx reference dropped
// from the loop.
func (e *Engine) ChunksNoCheck(ctx context.Context, run func(func(int))) {
	if ctx == nil {
		return
	}
	run(func(int) {
		stop := ctx.Err
		_ = stop
		for { // want "closure never checks ctx"
			if int(e.cursor.Add(1)) >= e.total {
				return
			}
		}
	})
}

// spin is unexported and context-free: out of both rules' scope.
func spin(n int) int {
	for {
		n--
		if n <= 0 {
			return n
		}
	}
}
