// Package labels implements the labeled-digraph framework of §2.1–2.2:
// every vertex v carries a parent pointer v.p defining a digraph whose
// only cycles are self-loops, so it is a forest of rooted trees. The
// building blocks are direct links, parent links, SHORTCUT, and ALTER.
// The package also provides the structural checks (acyclicity,
// flatness, partition extraction) the correctness lemmas rely on.
package labels

import (
	"fmt"

	"repro/internal/pram"
)

// Digraph is the labeled digraph: Parent[v] is v.p. A vertex v is a
// root iff Parent[v] == v.
type Digraph struct {
	Parent []int32
}

// NewSelfLabeled returns the initial labeling v.p = v (§2.1).
func NewSelfLabeled(n int) *Digraph {
	d := &Digraph{Parent: make([]int32, n)}
	for i := range d.Parent {
		d.Parent[i] = int32(i)
	}
	return d
}

// N returns the number of vertices.
func (d *Digraph) N() int { return len(d.Parent) }

// IsRoot reports whether v is a root.
func (d *Digraph) IsRoot(v int32) bool { return d.Parent[v] == v }

// Root follows parent pointers to the root of v's tree (host-side walk
// used by verification, not charged as PRAM time).
func (d *Digraph) Root(v int32) int32 {
	for d.Parent[v] != v {
		v = d.Parent[v]
	}
	return v
}

// Shortcut performs one parallel SHORTCUT: for each v, v.p := v.p.p.
// The PRAM's read phase snapshots the old parents into the machine's
// reusable buffer, so v.p.p is taken from the old digraph; the
// processors read only the snapshot, and only processor v writes
// Parent[v]. Every processor writes,
// even when v.p.p is v.p already: whether a vertex is two hops from
// its root is unpredictable in id order, and a plain store of an
// unchanged value is cheaper than the branch it replaces. Each range
// ORs gp ^ v.p over its vertices and raises the flag once if the OR is
// non-zero. Returns 1 if any parent changed and 0 otherwise (an
// ARBITRARY-write flag, not a count).
func (d *Digraph) Shortcut(m *pram.Machine) int {
	par := d.Parent
	old := m.Snapshot32(par)
	var changed int64
	m.StepRange(len(par), func(lo, hi int) {
		src, dst := old[lo:hi], par[lo:hi]
		dst = dst[:len(src)]
		var diff int32
		for v, p := range src {
			gp := old[p]
			dst[v] = gp
			diff |= gp ^ p
		}
		if diff != 0 {
			changed = 1 // arbitrary write: "some parent changed"
		}
	})
	return int(changed)
}

// Flatten repeatedly shortcuts until every tree is flat, charging one
// step per iteration. Returns the number of iterations.
func (d *Digraph) Flatten(m *pram.Machine) int {
	iters := 0
	for {
		iters++
		if d.Shortcut(m) == 0 {
			return iters
		}
	}
}

// FlattenVerts is Flatten with the host sweeping verts only, for a
// digraph whose every other vertex is an isolated root: that vertex's
// processor stores the parent it has. It charges what Flatten charges,
// n processors a pass, and returns the same pass count. Each pass
// reads the old grandparents of verts into a buffer of their own
// before it writes, as Shortcut reads its snapshot.
func (d *Digraph) FlattenVerts(m *pram.Machine, verts []int32) int {
	par := d.Parent
	gp := make([]int32, len(verts))
	iters := 0
	for {
		iters++
		var diff int32
		m.StepN(len(par), len(verts), func(lo, hi int) {
			vs, g := verts[lo:hi], gp[lo:hi]
			g = g[:len(vs)]
			for i, v := range vs {
				p := par[v]
				g[i] = par[p]
				diff |= g[i] ^ p
			}
			for i, v := range vs {
				par[v] = g[i]
			}
		})
		if diff == 0 {
			return iters
		}
	}
}

// IsFlat reports whether every tree is flat (each parent is a root).
func (d *Digraph) IsFlat() bool {
	for _, p := range d.Parent {
		if d.Parent[p] != p {
			return false
		}
	}
	return true
}

// CheckAcyclic verifies that the only cycles are self-loops. Returns an
// error naming a vertex on a nontrivial cycle if one exists.
func (d *Digraph) CheckAcyclic() error {
	n := len(d.Parent)
	state := make([]int8, n) // 0 unvisited, 1 on stack, 2 done
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		v := int32(s)
		var path []int32
		for state[v] == 0 {
			state[v] = 1
			path = append(path, v)
			p := d.Parent[v]
			if p == v {
				break
			}
			if state[p] == 1 {
				return fmt.Errorf("labels: nontrivial cycle through vertex %d", p)
			}
			v = p
		}
		for _, u := range path {
			state[u] = 2
		}
	}
	return nil
}

// RootsOf returns, for each vertex, the root of its tree (host walk
// with memoization; used by verification and postprocessing glue).
func (d *Digraph) RootsOf() []int32 {
	n := len(d.Parent)
	root := make([]int32, n)
	for i := range root {
		root[i] = -1
	}
	var stack []int32
	for s := 0; s < n; s++ {
		v := int32(s)
		stack = stack[:0]
		for root[v] < 0 && d.Parent[v] != v {
			stack = append(stack, v)
			v = d.Parent[v]
		}
		r := root[v]
		if r < 0 {
			r = v
		}
		root[s] = r
		for _, u := range stack {
			root[u] = r
		}
	}
	return root
}

// TreeHeights returns the height of each root's tree (0 for flat roots
// with no children) indexed by root id, and the maximum height.
func (d *Digraph) TreeHeights() (byRoot map[int32]int, max int) {
	byRoot = make(map[int32]int)
	n := len(d.Parent)
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	var walk func(v int32) int32
	walk = func(v int32) int32 {
		if depth[v] >= 0 {
			return depth[v]
		}
		if d.Parent[v] == v {
			depth[v] = 0
			return 0
		}
		depth[v] = walk(d.Parent[v]) + 1
		return depth[v]
	}
	for v := 0; v < n; v++ {
		dv := int(walk(int32(v)))
		r := d.Root(int32(v))
		if dv > byRoot[r] {
			byRoot[r] = dv
		}
		if dv > max {
			max = dv
		}
	}
	return byRoot, max
}
