package mdm

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestKeySpaceRoundTripAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		cards := make([]int, rng.Intn(5))
		for p := range cards {
			cards[p] = 1 + rng.Intn(40)
		}
		k := NewKeySpace(cards)
		if k.Wide() {
			t.Fatalf("cards %v reported wide", cards)
		}
		draw := func() Coordinate {
			c := make(Coordinate, len(cards))
			for p := range c {
				c[p] = int32(rng.Intn(cards[p]))
			}
			return c
		}
		a, b := draw(), draw()
		keys := k.Keys(columns(a, b), 2)
		ka, kb := keys[0], keys[1]
		if ka == NoKey || kb == NoKey {
			t.Fatalf("in-range coordinates %v %v have no key in %v", a, b, cards)
		}
		// Keys order like coordinates order by member id.
		if got, want := cmp.Compare(ka, kb), slices.Compare(a, b); got != want {
			t.Fatalf("keys of %v and %v compare %d, coordinates %d", a, b, got, want)
		}
		back := make(Coordinate, len(cards))
		for p := range back {
			back[p] = k.Member(ka, p)
		}
		if !slices.Equal(back, a) {
			t.Fatalf("decode(key(%v)) = %v", a, back)
		}
		if len(cards) > 0 {
			// An id past its level, or negative, has no key; the cells
			// beside it keep theirs.
			out, neg := slices.Clone(a), slices.Clone(a)
			p := rng.Intn(len(out))
			out[p], neg[p] = int32(cards[p])+int32(rng.Intn(3)), -1
			if got := k.Keys(columns(a, out, neg, b), 4); got[1] != NoKey || got[2] != NoKey || got[0] != ka || got[3] != kb {
				t.Fatalf("keys of %v, %v, %v, %v in %v = %v", a, out, neg, b, cards, got)
			}
		}
	}
}

// columns lays coordinates out as key columns, one per position.
func columns(coords ...Coordinate) [][]int32 {
	cols := make([][]int32, len(coords[0]))
	for p := range cols {
		for _, c := range coords {
			cols[p] = append(cols[p], c[p])
		}
	}
	return cols
}

func TestKeySpaceWide(t *testing.T) {
	if NewKeySpace([]int{1 << 31, 1 << 31, 3}).Wide() {
		t.Error("a 2^62·3 space reported wide")
	}
	if !NewKeySpace([]int{1 << 31, 1 << 31, 5}).Wide() {
		t.Error("a 2^62·5 space fits 64 bits")
	}
	// An empty level holds no coordinate, and does not make the space wide.
	k := NewKeySpace([]int{4, 0})
	if k.Wide() {
		t.Error("a space with an empty level reported wide")
	}
	if k.Keys(columns(Coordinate{1, 0}), 1)[0] != NoKey {
		t.Error("a coordinate has a key in a space with an empty level")
	}
	c := Coordinate{7, 1 << 20, 3}
	if WideKey(c, nil) != "\x07\x00\x00\x00\x00\x00\x10\x00\x03\x00\x00\x00" || WideKey(c, []int{2, 0}) != "\x03\x00\x00\x00\x07\x00\x00\x00" {
		t.Error("WideKey is not the little-endian byte-string key")
	}
}

func TestDictRanks(t *testing.T) {
	d := NewDict()
	for _, n := range []string{"pear", "apple", "Zucchini", "fig", "apple2"} {
		d.Intern(n)
	}
	check := func() {
		t.Helper()
		ranks := d.Ranks()
		if len(ranks) != d.Len() {
			t.Fatalf("%d ranks for %d members", len(ranks), d.Len())
		}
		sorted := d.SortedNames()
		for id, r := range ranks {
			if sorted[r] != d.Name(int32(id)) {
				t.Fatalf("member %q has rank %d, which is %q", d.Name(int32(id)), r, sorted[r])
			}
		}
		if !sort.StringsAreSorted(sorted) {
			t.Fatal("SortedNames is not sorted")
		}
	}
	check()
	if &d.Ranks()[0] != &d.Ranks()[0] {
		t.Error("rank table rebuilt without the dictionary growing")
	}
	// Growing the dictionary invalidates the cached table.
	d.Intern("banana")
	d.Intern("Apple")
	check()
	// Concurrent readers may race to rebuild it; run under -race.
	d.Intern("cherry")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := d.Ranks(); len(r) != d.Len() {
				t.Errorf("%d ranks for %d members", len(r), d.Len())
			}
		}()
	}
	wg.Wait()
	check()
}
