package baseline

import (
	"repro/graph"
	"repro/internal/pram"
)

// ParallelResult reports the outcome of a simulated PRAM baseline.
type ParallelResult struct {
	Labels []int32    // component label per vertex
	Rounds int        // iterations of the main loop
	Stats  pram.Stats // machine cost counters
}

// ShiloachVishkin is the classic O(log n)-time, O(m)-processor CRCW
// algorithm [SV82]: each round performs conditional hooking of root
// labels onto smaller neighbour labels, hooking of stagnant trees, and
// one shortcut. Labels converge to per-component minima.
//
// Every sub-step reads the D array as it stood at the start of the
// sub-step (PRAM synchronous semantics — reads before writes), so
// round counts are faithful to the model rather than deflated by
// host-order cascading.
//
// Hooking discipline: every pointer write targets a strictly smaller
// label (both the conditional and the stagnant hooking), so parent
// pointers always decrease and the digraph is acyclic by construction
// — realizing the "no nontrivial cycles" invariant (§2.1). This is the
// label-ordered variant used by practical implementations; [SV82]'s
// original stagnant hooking onto arbitrary neighbours needs global
// bookkeeping to stay acyclic, and allowing label-increasing pointers
// lets hooks from different rounds compose into cycles.
func ShiloachVishkin(m *pram.Machine, g *graph.Graph) ParallelResult {
	n := g.N
	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	snap := make([]int32, n)
	gotHook := make([]int32, n)
	u, v := g.U, g.V
	rounds := 0
	for {
		rounds++
		pram.Fill32(gotHook, 0)

		// Step 1: conditional hooking (reads from snap, writes to d).
		copy(snap, d)
		m.Step(len(u), func(i int) {
			x, y := u[i], v[i]
			dx := snap[x]
			if snap[dx] != dx {
				return // D[x] not a root this round
			}
			dy := snap[y]
			if dy < dx {
				d[dx] = dy
				gotHook[dy] = 1
			}
		})

		// Step 2: hook stagnant roots (still roots, no hook received).
		copy(snap, d)
		m.Step(len(u), func(i int) {
			x, y := u[i], v[i]
			dx := snap[x]
			if snap[dx] != dx || gotHook[dx] == 1 {
				return // not a stagnant root label
			}
			dy := snap[y]
			if dy < dx {
				d[dx] = dy
			}
		})

		// Step 3: shortcut.
		copy(snap, d)
		m.Step(n, func(i int) {
			d[i] = snap[snap[i]]
		})

		// Convergence: labels flat and equal across every arc.
		var active int64
		m.Step(n, func(i int) {
			if d[d[i]] != d[i] {
				active = 1
			}
		})
		m.Step(len(u), func(i int) {
			if d[u[i]] != d[v[i]] {
				active = 1
			}
		})
		if active == 0 {
			break
		}
	}
	return ParallelResult{Labels: d, Rounds: rounds, Stats: m.Stats()}
}

// AwerbuchShiloach is the simplified variant [AS87]: only vertices in
// flat trees hook, alternating smaller-label hooking, stagnant-tree
// hooking (same strictly-decreasing discipline as ShiloachVishkin),
// and shortcut. O(log n) time, O(m) processors on the benchmark
// workloads.
func AwerbuchShiloach(m *pram.Machine, g *graph.Graph) ParallelResult {
	n := g.N
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	snap := make([]int32, n)
	u, v := g.U, g.V
	flat := make([]int32, n)
	gotHook := make([]int32, n)
	rounds := 0
	for {
		rounds++
		// Mark vertices in flat trees (their parent is a root).
		m.Step(n, func(i int) {
			pi := p[i]
			if p[pi] == pi {
				flat[i] = 1
			} else {
				flat[i] = 0
			}
		})
		pram.Fill32(gotHook, 0)
		// Hook flat-tree roots onto strictly smaller neighbour parents.
		copy(snap, p)
		m.Step(len(u), func(i int) {
			x, y := u[i], v[i]
			if flat[x] == 0 {
				return
			}
			px, py := snap[x], snap[y]
			if py < px {
				p[px] = py
				gotHook[py] = 1
			}
		})
		// Hook stagnant flat trees with the acyclicity guard.
		copy(snap, p)
		m.Step(len(u), func(i int) {
			x, y := u[i], v[i]
			if flat[x] == 0 {
				return
			}
			px := snap[x]
			if snap[px] != px || gotHook[px] == 1 {
				return
			}
			py := snap[y]
			if py < px {
				p[px] = py
			}
		})
		// Shortcut.
		copy(snap, p)
		m.Step(n, func(i int) {
			p[i] = snap[snap[i]]
		})
		// Converged when flat and consistent across arcs.
		var active int64
		m.Step(n, func(i int) {
			if p[p[i]] != p[i] {
				active = 1
			}
		})
		m.Step(len(u), func(i int) {
			if p[u[i]] != p[v[i]] {
				active = 1
			}
		})
		if active == 0 {
			break
		}
	}
	return ParallelResult{Labels: p, Rounds: rounds, Stats: m.Stats()}
}
