package baseline

import (
	"fmt"

	"repro/graph"
	"repro/internal/pram"
)

// The Liu–Tarjan framework [LT19] (the paper's §2.2: "Liu and Tarjan
// analyze simple algorithms that use combinations of our first three
// building blocks"). An algorithm is a per-round sequence of:
//
//	a link step     — direct, parent, or extended parent link on arcs,
//	                  always towards smaller labels (acyclic by the
//	                  strictly-decreasing discipline);
//	a shortcut step — one application or repeat-to-root;
//	an alter step   — replace arcs by parent arcs, or keep arcs as is.
//
// The eight meaningful combinations give the simple practical
// algorithms whose O(log n)-style behaviour motivates the paper's
// question (§1: "such simple algorithms often perform well in
// practice"). All run on the simulated ARBITRARY CRCW PRAM with
// snapshot (read-before-write) semantics.

// LinkRule selects the link step of a Liu–Tarjan variant.
type LinkRule int

const (
	// LinkParent links v.p to w.p for arcs (v,w) with w.p < v.p
	// (parent link, concurrent writes resolved arbitrarily).
	LinkParent LinkRule = iota
	// LinkDirect links only roots: if v.p = v and w.p < v then v.p := w.p.
	LinkDirect
	// LinkExtended is the extended parent link: each vertex v also
	// updates v.p to the minimum parent over its arcs in the same step
	// (a combining-CRCW min write).
	LinkExtended
)

// ShortcutRule selects the shortcut step.
type ShortcutRule int

const (
	// ShortcutOne applies v.p := v.p.p once.
	ShortcutOne ShortcutRule = iota
	// ShortcutFull repeats the shortcut until all trees are flat,
	// charging one PRAM step per application (root finding).
	ShortcutFull
)

// LTVariant describes one algorithm of the family.
type LTVariant struct {
	Name     string
	Link     LinkRule
	Shortcut ShortcutRule
	Alter    bool // rewrite arcs to parent arcs each round
}

// LTVariants enumerates the family (direct links require alteration to
// make progress, so the non-altering direct variant is omitted).
func LTVariants() []LTVariant {
	return []LTVariant{
		{"P", LinkParent, ShortcutOne, false},
		{"PA", LinkParent, ShortcutOne, true},
		{"PF", LinkParent, ShortcutFull, false},
		{"PFA", LinkParent, ShortcutFull, true},
		{"DA", LinkDirect, ShortcutOne, true},
		{"DFA", LinkDirect, ShortcutFull, true},
		{"E", LinkExtended, ShortcutOne, false},
		{"EA", LinkExtended, ShortcutOne, true},
		{"EFA", LinkExtended, ShortcutFull, true},
	}
}

// LTVariantByName returns the named variant.
func LTVariantByName(name string) (LTVariant, error) {
	for _, v := range LTVariants() {
		if v.Name == name {
			return v, nil
		}
	}
	return LTVariant{}, fmt.Errorf("baseline: unknown Liu–Tarjan variant %q", name)
}

// LiuTarjan runs one variant of the family to a fixed point.
func LiuTarjan(m *pram.Machine, g *graph.Graph, variant LTVariant) ParallelResult {
	n := g.N
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	au := make([]int32, len(g.U))
	av := make([]int32, len(g.V))
	copy(au, g.U)
	copy(av, g.V)
	snap := make([]int32, n)
	best := make([]int64, n)

	rounds := 0
	for {
		rounds++
		// ---- link ----
		copy(snap, p)
		switch variant.Link {
		case LinkParent:
			m.Step(len(au), func(i int) {
				x, y := au[i], av[i]
				if x == y {
					return
				}
				px, py := snap[x], snap[y]
				if py < px {
					p[px] = py
				}
			})
		case LinkDirect:
			m.Step(len(au), func(i int) {
				x, y := au[i], av[i]
				if x == y {
					return
				}
				if snap[x] == x { // x is a root
					if py := snap[y]; py < x {
						p[x] = py
					}
				}
			})
		case LinkExtended:
			m.Step(n, func(i int) {
				best[i] = int64(snap[i])
			})
			m.Step(len(au), func(i int) {
				x, y := au[i], av[i]
				if x != y {
					minCombine(&best[x], int64(snap[y]))
					minCombine(&best[snap[x]], int64(snap[y]))
				}
			})
			m.Step(n, func(i int) {
				if b := int32(best[i]); b < p[i] {
					p[i] = b
				}
			})
		}

		// ---- shortcut ----
		switch variant.Shortcut {
		case ShortcutOne:
			copy(snap, p)
			m.Step(n, func(i int) {
				p[i] = snap[snap[i]]
			})
		case ShortcutFull:
			for {
				copy(snap, p)
				var moved int64
				m.Step(n, func(i int) {
					gp := snap[snap[i]]
					if gp != snap[i] {
						moved = 1
					}
					p[i] = gp
				})
				if moved == 0 {
					break
				}
			}
		}

		// ---- alter ----
		if variant.Alter {
			m.Step(len(au), func(i int) {
				au[i] = p[au[i]]
				av[i] = p[av[i]]
			})
		}

		// ---- fixed point: flat and consistent across arcs ----
		var active int64
		m.Step(n, func(i int) {
			if p[p[i]] != p[i] {
				active = 1
			}
		})
		m.Step(len(au), func(i int) {
			if p[au[i]] != p[av[i]] {
				active = 1
			}
		})
		if active == 0 {
			break
		}
		if rounds > 8*n+64 {
			break // safety net; tests verify against the oracle
		}
	}
	return ParallelResult{Labels: p, Rounds: rounds, Stats: m.Stats()}
}

// LiuTarjanMinLinkVariant returns the "EA" variant, which is the
// algorithm exposed as LiuTarjanMinLink for the experiment tables.
func LiuTarjanMinLinkVariant() LTVariant {
	return LTVariant{"EA", LinkExtended, ShortcutOne, true}
}
