package compaction

import (
	"testing"
	"testing/quick"

	"repro/internal/hashing"
	"repro/internal/pram"
)

func TestCompactBasic(t *testing.T) {
	m := pram.New()
	dist := make([]bool, 100)
	for i := 0; i < 100; i += 3 {
		dist[i] = true
	}
	res := Compact(m, hashing.Family{Seed: 1}, dist, false)
	if res.Failed {
		t.Fatal("compaction failed")
	}
	k := 34
	if res.Size != 2*k {
		t.Fatalf("size = %d, want %d", res.Size, 2*k)
	}
	seen := map[int32]bool{}
	for i, d := range dist {
		idx := res.Indices[i]
		if d {
			if idx < 0 || int(idx) >= res.Size {
				t.Fatalf("element %d got index %d out of range", i, idx)
			}
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		} else if idx != -1 {
			t.Fatalf("non-distinguished element %d got index %d", i, idx)
		}
	}
}

func TestCompactEmpty(t *testing.T) {
	m := pram.New()
	res := Compact(m, hashing.Family{Seed: 2}, make([]bool, 10), false)
	if res.Failed || res.Rounds != 0 {
		t.Fatalf("empty compaction: %+v", res)
	}
}

func TestCompactAllDistinguished(t *testing.T) {
	m := pram.New()
	dist := make([]bool, 64)
	for i := range dist {
		dist[i] = true
	}
	res := Compact(m, hashing.Family{Seed: 3}, dist, true)
	if res.Failed {
		t.Fatal("failed")
	}
	seen := map[int32]bool{}
	for _, idx := range res.Indices {
		if idx < 0 || seen[idx] {
			t.Fatal("not one-to-one")
		}
		seen[idx] = true
	}
}

func TestCompactProperty(t *testing.T) {
	f := func(seed uint64, mask []bool) bool {
		if len(mask) == 0 {
			return true
		}
		m := pram.New()
		res := Compact(m, hashing.Family{Seed: seed}, mask, false)
		if res.Failed {
			return false // would be a 1/poly event; treat as failure at this size
		}
		seen := map[int32]bool{}
		for i, d := range mask {
			idx := res.Indices[i]
			if d != (idx >= 0) {
				return false
			}
			if idx >= 0 {
				if int(idx) >= res.Size || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRoundsLogarithmic(t *testing.T) {
	// The simple retry realization places a constant fraction per
	// round, so the host retry count is O(log k). (The charged PRAM
	// cost is Lemma D.2's, independent of the host loop.)
	m := pram.New()
	dist := make([]bool, 100000)
	for i := range dist {
		dist[i] = i%2 == 0
	}
	res := Compact(m, hashing.Family{Seed: 7}, dist, false)
	if res.Failed {
		t.Fatal("failed")
	}
	if res.Rounds > 40 {
		t.Fatalf("compaction used %d rounds, want O(log k)", res.Rounds)
	}
}

func TestCompactChargesTime(t *testing.T) {
	m := pram.New()
	dist := []bool{true, false, true}
	Compact(m, hashing.Family{Seed: 9}, dist, false)
	if m.Stats().Steps == 0 {
		t.Fatal("compaction must charge PRAM time")
	}
}
