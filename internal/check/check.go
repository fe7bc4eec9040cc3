// Package check provides the verification oracles used by tests and by
// Experiment E7: partition equality of two component labelings (up to
// relabeling) and structural validation of spanning forests.
package check

import (
	"fmt"

	"repro/graph"
)

// SamePartition reports whether two labelings induce the same partition
// of [0,n): a[i]==a[j] ⟺ b[i]==b[j] for all i,j, checked in O(n) by
// cross-mapping representatives.
func SamePartition(a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("check: labelings have different lengths %d, %d", len(a), len(b))
	}
	ab := make(map[int32]int32)
	ba := make(map[int32]int32)
	for i := range a {
		if mapped, ok := ab[a[i]]; ok {
			if mapped != b[i] {
				return fmt.Errorf("check: vertices with label %d map to both %d and %d", a[i], mapped, b[i])
			}
		} else {
			ab[a[i]] = b[i]
		}
		if mapped, ok := ba[b[i]]; ok {
			if mapped != a[i] {
				return fmt.Errorf("check: vertices with label %d map back to both %d and %d", b[i], mapped, a[i])
			}
		} else {
			ba[b[i]] = a[i]
		}
	}
	return nil
}

// Components verifies labels against the BFS oracle for g.
func Components(g *graph.Graph, labels []int32) error {
	return SamePartition(labels, g.ComponentsBFS())
}

// Forest validates a spanning forest given as arc-pair indices (index
// i is arcs 2i and 2i+1 of g.U/g.V): (i) indices are valid and
// distinct, (ii) the selected edges are acyclic, (iii) their count is
// n − #components, which together with (ii) implies they span every
// component.
func Forest(g *graph.Graph, edgeIdx []int) error {
	seen := make(map[int]bool, len(edgeIdx))
	parent := make([]int32, g.N)
	rank := make([]int8, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, idx := range edgeIdx {
		if idx < 0 || idx >= g.NumEdges() {
			return fmt.Errorf("check: forest edge index %d out of range [0,%d)", idx, g.NumEdges())
		}
		if seen[idx] {
			return fmt.Errorf("check: forest edge index %d repeated", idx)
		}
		seen[idx] = true
		x, y := g.U[2*idx], g.V[2*idx]
		rx, ry := find(x), find(y)
		if rx == ry {
			return fmt.Errorf("check: forest edge %d = {%d,%d} closes a cycle", idx, x, y)
		}
		if rank[rx] < rank[ry] {
			rx, ry = ry, rx
		}
		parent[ry] = rx
		if rank[rx] == rank[ry] {
			rank[rx]++
		}
	}
	want := g.N - g.NumComponents()
	if len(edgeIdx) != want {
		return fmt.Errorf("check: forest has %d edges, want n-#components = %d", len(edgeIdx), want)
	}
	return nil
}

// NumLabels returns the number of distinct labels.
func NumLabels(labels []int32) int {
	set := make(map[int32]struct{})
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return len(set)
}
