// Package uf is the concurrent disjoint-set kernel that both parallel
// engines build on: the native engine's root-linking round and the
// incremental engine's batch unions and flatten. It is the paper's one
// primitive on an ARBITRARY CRCW PRAM — link a root under another root,
// then shortcut — run asynchronously on goroutines (Jayanti–Tarjan
// style): parents change only by compare-and-swap, Link hangs the larger
// of two roots under the smaller, and Find does path splitting (each
// visited vertex is CASed from its parent to its grandparent).
//
// A forest is a []int32 parent array that starts as the identity (or as
// any labeling that already keeps the invariants, such as a canonical
// component labeling). Three invariants make every interleaving of Find
// and Link calls safe:
//
//  1. parent[x] ≤ x always. Link attaches a larger root under a smaller
//     one and splitting replaces a parent with an ancestor, so parent
//     chains strictly decrease, can never form a cycle, and each tree's
//     root is its minimum id.
//  2. Link writes only to a current root: its CAS expects parent[r] = r,
//     so a lost race means another call linked r first, and Link retries
//     from the fresh roots.
//  3. parent[x] always names a vertex of x's component, so no CAS can
//     merge components that share no edge.
//
// Trees therefore merge but never split. When Link(parent, u, v)
// returns, u and v share a tree, so once every edge has been linked the
// trees are the components, and Find of any vertex returns its
// component's minimum id.
package uf

import "sync/atomic"

// Find returns the root of x, splitting the path on the way: each
// visited vertex is CASed from its parent to its grandparent. A failed
// CAS means a racing call already moved the pointer; progress stays
// monotone because parents strictly decrease along every path.
//
//pramcc:zeroalloc
func Find(parent []int32, x int32) int32 {
	for {
		p := atomic.LoadInt32(&parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&parent[x], p, gp)
		x = gp
	}
}

// Link joins the trees of u and v: the larger root is CASed under the
// smaller, retrying from the fresh roots when another call linked one
// of them first. It reports whether its own CAS merged two trees, so
// over a whole forest the calls that return true number exactly n minus
// the component count.
//
//pramcc:zeroalloc
func Link(parent []int32, u, v int32) bool {
	for {
		ru, rv := Find(parent, u), Find(parent, v)
		if ru == rv {
			return false
		}
		if ru > rv {
			ru, rv = rv, ru
		}
		if atomic.CompareAndSwapInt32(&parent[rv], rv, ru) {
			return true
		}
		u, v = ru, rv
	}
}
