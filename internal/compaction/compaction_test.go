package compaction

import (
	"testing"
	"testing/quick"

	"repro/internal/hashing"
	"repro/internal/pram"
)

// elemsOf lists the indices of the distinguished elements of mask.
func elemsOf(mask []bool) []int32 {
	var elems []int32
	for i, d := range mask {
		if d {
			elems = append(elems, int32(i))
		}
	}
	return elems
}

// placement inverts res.Slots into element → slot. ok is false unless
// every placed element is one of elems and appears once, every element
// of elems is placed, and Slots spans Size cells.
func placement(res Result, elems []int32) (slot map[int32]int, ok bool) {
	if len(res.Slots) != res.Size {
		return nil, false
	}
	want := map[int32]bool{}
	for _, e := range elems {
		want[e] = true
	}
	slot = map[int32]int{}
	for s, e := range res.Slots {
		if e == -1 {
			continue
		}
		if _, dup := slot[e]; dup || !want[e] {
			return nil, false
		}
		slot[e] = s
	}
	return slot, len(slot) == len(elems)
}

func TestCompactBasic(t *testing.T) {
	m := pram.New()
	dist := make([]bool, 100)
	for i := 0; i < 100; i += 3 {
		dist[i] = true
	}
	elems := elemsOf(dist)
	res := Compact(m, hashing.Family{Seed: 1}, elems, false)
	if res.Failed {
		t.Fatal("compaction failed")
	}
	k := 34
	if res.Size != 2*k {
		t.Fatalf("size = %d, want %d", res.Size, 2*k)
	}
	if _, ok := placement(res, elems); !ok {
		t.Fatalf("slots %v are not a one-to-one placement of the distinguished elements", res.Slots)
	}
}

func TestCompactEmpty(t *testing.T) {
	m := pram.New()
	res := Compact(m, hashing.Family{Seed: 2}, elemsOf(make([]bool, 10)), false)
	if res.Failed || res.Rounds != 0 || res.Size != 1 || res.Slots != nil {
		t.Fatalf("empty compaction: %+v", res)
	}
}

func TestCompactAllDistinguished(t *testing.T) {
	m := pram.New()
	dist := make([]bool, 64)
	for i := range dist {
		dist[i] = true
	}
	elems := elemsOf(dist)
	res := Compact(m, hashing.Family{Seed: 3}, elems, true)
	if res.Failed {
		t.Fatal("failed")
	}
	if _, ok := placement(res, elems); !ok {
		t.Fatal("not one-to-one")
	}
}

func TestCompactProperty(t *testing.T) {
	f := func(seed uint64, mask []bool) bool {
		if len(mask) == 0 {
			return true
		}
		m := pram.New()
		elems := elemsOf(mask)
		res := Compact(m, hashing.Family{Seed: seed}, elems, false)
		if res.Failed {
			return false // would be a 1/poly event; treat as failure at this size
		}
		if len(elems) == 0 {
			return res.Slots == nil
		}
		_, ok := placement(res, elems)
		return ok
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
	res := Compact(m, hashing.Family{Seed: 7}, elemsOf(dist), false)
	if res.Failed {
		t.Fatal("failed")
	}
	if res.Rounds > 40 {
		t.Fatalf("compaction used %d rounds, want O(log k)", res.Rounds)
	}
}

func TestCompactChargesTime(t *testing.T) {
	m := pram.New()
	Compact(m, hashing.Family{Seed: 9}, []int32{0, 2}, false)
	if m.Stats().Steps == 0 {
		t.Fatal("compaction must charge PRAM time")
	}
}
