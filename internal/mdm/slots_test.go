package mdm

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSlots holds the slot table to a Go map over random coordinates with
// repeats, in a space of 64 bits and in one past it, through several
// doublings of the bucket array: slots are handed out in first-seen order
// and kept, Find returns -1 for a coordinate not held, and a member id
// outside the space is never held and never finds another coordinate's
// slot.
func TestSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cards := range [][]int{{1 << 31, 1 << 31, 3}, {1 << 31, 1 << 31, 5}, {6, 1 << 20}} {
		space := NewKeySpace(cards)
		tab := NewSlots(space, 0)
		buckets := len(tab.index)
		ref := map[string]int32{}
		var order []Coordinate // order[s] = slot s's coordinate
		draw := func() Coordinate {
			c := make(Coordinate, len(cards))
			for p := range c {
				c[p] = int32(rng.Intn(cards[p]))
			}
			return c
		}
		for batch := 0; batch < 100; batch++ {
			coords := make([]Coordinate, 64)
			for i := range coords {
				if len(order) > 0 && rng.Intn(3) == 0 {
					coords[i] = order[rng.Intn(len(order))] // a repeat
				} else {
					coords[i] = draw()
				}
			}
			// Look up first: nothing is assigned, and only held
			// coordinates are found.
			for i, s := range tab.Find(columns(coords...), len(coords)) {
				if want, held := ref[WideKey(coords[i], nil)]; !held && s != -1 || held && s != want {
					t.Fatalf("cards %v: Find(%v) = %d, reference %d (held %v)", cards, coords[i], s, want, held)
				}
			}
			for i, s := range tab.Index(columns(coords...), len(coords)) {
				key := WideKey(coords[i], nil)
				want, held := ref[key]
				if !held {
					want = int32(len(order))
					ref[key] = want
					order = append(order, coords[i])
				}
				if s != want {
					t.Fatalf("cards %v: Index(%v) = %d, want slot %d", cards, coords[i], s, want)
				}
			}
			if tab.Len() != len(order) {
				t.Fatalf("cards %v: %d slots for %d coordinates", cards, tab.Len(), len(order))
			}
		}
		if len(tab.index) < 8*buckets {
			t.Fatalf("cards %v: buckets grew from %d to %d, fewer than three doublings", cards, buckets, len(tab.index))
		}
		for s, c := range order {
			for p := range c {
				if tab.Member(s, p) != c[p] {
					t.Fatalf("cards %v: slot %d decodes to a coordinate other than %v", cards, s, c)
				}
			}
		}
		if !slices.IsSortedFunc(tab.Sorted(), func(a, b int) int { return slices.Compare(order[a], order[b]) }) {
			t.Fatalf("cards %v: Sorted is not in coordinate order", cards)
		}
		// An id at or past its level's cardinality, or negative: in the
		// mixed-radix space (id, card_1 + k) would carry the key of
		// (id+1, k), which the table may hold.
		for i := 0; i < 200; i++ {
			c := slices.Clone(order[rng.Intn(len(order))])
			p := rng.Intn(len(c))
			c[p] = -1 - int32(rng.Intn(3))
			if cards[p] < 1<<31 && rng.Intn(4) > 0 {
				c[p] = int32(cards[p] + rng.Intn(3))
			}
			if s := tab.Find(columns(c), 1)[0]; s != -1 {
				t.Fatalf("cards %v: out-of-space %v found slot %d (%v)", cards, c, s, order[s])
			}
			if s := tab.Index(columns(c), 1)[0]; s != -1 || tab.Len() != len(order) {
				t.Fatalf("cards %v: out-of-space %v was given slot %d", cards, c, s)
			}
		}
	}
}

// TestSlotsAssignAndAbsorb holds the kernel's entries to Index: Assign
// over random 64-bit keys and AssignCoord over wide coordinates give the
// slots a Go map would, and Absorb maps another table's slots onto the
// receiver's.
func TestSlotsAssignAndAbsorb(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	narrow := NewSlots(NewKeySpace([]int{1 << 31, 1 << 31, 3}), 0)
	ref := map[uint64]uint64{}
	for batch := 0; batch < 50; batch++ {
		keys := make([]uint64, 100)
		for i := range keys {
			keys[i] = rng.Uint64() >> uint(rng.Intn(60)) // small keys repeat
		}
		want := make([]uint64, len(keys))
		for i, k := range keys {
			if _, held := ref[k]; !held {
				ref[k] = uint64(len(ref))
			}
			want[i] = ref[k]
		}
		narrow.Assign(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("Assign gave %v, want %v", keys, want)
		}
	}
	space := NewKeySpace([]int{1 << 20, 1 << 20, 1 << 20, 1 << 20})
	a, b := NewSlots(space, 0), NewSlots(space, 0)
	for i := 0; i < 3000; i++ {
		c := Coordinate{int32(rng.Intn(40)), int32(rng.Intn(40)), 7, int32(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			a.AssignCoord(c)
		} else {
			b.AssignCoord(c)
		}
	}
	held := a.Len()
	at := a.Absorb(b)
	if len(at) != b.Len() {
		t.Fatalf("Absorb returned %d slots for %d", len(at), b.Len())
	}
	for s, d := range at {
		for p := 0; p < 4; p++ {
			if a.Member(int(d), p) != b.Member(s, p) {
				t.Fatalf("slot %d of b maps to slot %d of a, another coordinate", s, d)
			}
		}
	}
	if a.Len() < held || a.Len() > held+b.Len() {
		t.Fatalf("a holds %d slots after absorbing, had %d", a.Len(), held)
	}
}
