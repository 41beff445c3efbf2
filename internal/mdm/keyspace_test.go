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
		ka, ok := k.Key(a, nil)
		kb, ok2 := k.Key(b, nil)
		if !ok || !ok2 {
			t.Fatalf("in-range coordinates %v %v have no key in %v", a, b, cards)
		}
		// Keys order like coordinates order by member id.
		if got, want := cmp.Compare(ka, kb), slices.Compare(a, b); got != want {
			t.Fatalf("keys of %v and %v compare %d, coordinates %d", a, b, got, want)
		}
		back := make(Coordinate, len(cards))
		k.Decode(ka, back)
		if !slices.Equal(back, a) {
			t.Fatalf("decode(key(%v)) = %v", a, back)
		}
		// Projecting onto every position in order is the whole coordinate.
		pos := make([]int, len(cards))
		for p := range pos {
			pos[p] = p
		}
		if on, ok := k.Key(a, pos); !ok || on != ka {
			t.Fatalf("Key on all positions = %d, Key = %d", on, ka)
		}
		if len(cards) > 0 {
			out := slices.Clone(a)
			p := rng.Intn(len(out))
			out[p] = int32(cards[p]) + int32(rng.Intn(3))
			if _, ok := k.Key(out, nil); ok {
				t.Fatalf("%v has a key in %v", out, cards)
			}
			out[p] = -1
			if _, ok := k.Key(out, pos); ok {
				t.Fatalf("%v has a key in %v", out, cards)
			}
		}
	}
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
	if _, ok := k.Key(Coordinate{1, 0}, nil); ok {
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
