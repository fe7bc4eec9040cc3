package labels

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pram"
)

// twoHopForest returns parents of a depth-2 forest in random id order:
// a tenth of the vertices are roots, six tenths point at a root and
// three tenths point at a depth-1 vertex, so SHORTCUT changes about 30%
// of the parents and which ones is unpredictable in id order.
func twoHopForest(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	id := rng.Perm(n)
	roots, mid := n/10, n/10+6*n/10
	par := make([]int32, n)
	for s := 0; s < n; s++ {
		p := s
		switch {
		case s >= mid:
			p = roots + rng.Intn(mid-roots)
		case s >= roots:
			p = rng.Intn(roots)
		}
		par[id[s]] = int32(id[p])
	}
	return par
}

// BenchmarkShortcut times one SHORTCUT on a two-hop forest. Each
// iteration first restores the forest, an n-word copy like the
// snapshot SHORTCUT takes itself.
func BenchmarkShortcut(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		forest := twoHopForest(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := pram.New()
			d := &Digraph{Parent: make([]int32, n)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(d.Parent, forest)
				if d.Shortcut(m) != 1 {
					b.Fatal("Shortcut changed no parent")
				}
			}
		})
	}
}
