package mdm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// acceptHierarchy builds a three-level hierarchy of n base members: base i
// sits under mid i%7, mid j under top j%3. Every mid and top member has a
// base descendant once n >= 7.
func acceptHierarchy(n int) *Hierarchy {
	h := NewHierarchy("H", "base", "mid", "top")
	growAcceptHierarchy(h, 0, n)
	return h
}

func growAcceptHierarchy(h *Hierarchy, from, to int) {
	for i := from; i < to; i++ {
		h.MustAddMember(fmt.Sprint("b", i), fmt.Sprint("m", i%7), fmt.Sprint("t", i%7%3))
	}
}

// bruteAccept is the definition Accept is held to, one Rollup per id: a
// predicate at or above the ids' level accepts the ids that roll up into
// its members; one below it accepts the ids some member rolls up to.
func bruteAccept(h *Hierarchy, at int, preds []levelMembers) []bool {
	out := make([]bool, h.Dict(at).Len())
	for id := range out {
		out[id] = true
		for _, p := range preds {
			ok := false
			for _, m := range p.members {
				if m < 0 || int(m) >= h.Dict(p.level).Len() {
					continue
				}
				if at <= p.level {
					ok = ok || h.Rollup(int32(id), at, p.level) == m
				} else {
					ok = ok || h.Rollup(m, p.level, at) == int32(id)
				}
			}
			out[id] = out[id] && ok
		}
	}
	return out
}

type levelMembers struct {
	level   int
	members []int32
}

// TestLevelMapAndAccept holds the one derivation of roll-up maps and
// predicate acceptance to a brute-force Rollup per id, before and after the
// dictionaries grow under maps already handed out.
func TestLevelMapAndAccept(t *testing.T) {
	cases := []struct {
		name  string
		preds []levelMembers
	}{
		{"no predicate", nil},
		{"base level", []levelMembers{{0, []int32{0, 3, 17}}}},
		{"mid level", []levelMembers{{1, []int32{2, 5}}}},
		{"top level", []levelMembers{{2, []int32{1}}}},
		{"every top member", []levelMembers{{2, []int32{0, 1, 2}}}},
		{"empty member list", []levelMembers{{1, []int32{}}}},
		{"nil member list", []levelMembers{{0, nil}}},
		{"members out of range", []levelMembers{{1, []int32{-1, 7, 1 << 30}}}},
		{"in and out of range", []levelMembers{{1, []int32{4, 99, -5}}}},
		{"repeated member", []levelMembers{{0, []int32{5, 5, 5}}}},
		{"two levels intersect", []levelMembers{{2, []int32{0}}, {1, []int32{0, 1, 3}}}},
		{"same level twice", []levelMembers{{1, []int32{1, 2, 3}}, {1, []int32{3, 4}}}},
		{"disjoint", []levelMembers{{1, []int32{1}}, {1, []int32{2}}}},
		{"three predicates", []levelMembers{{0, []int32{1, 8, 15, 22, 2}}, {1, []int32{1, 2}}, {2, []int32{1, 2}}}},
	}
	h := acceptHierarchy(40)
	check := func(t *testing.T, phase string) {
		t.Helper()
		for from := 0; from < h.Depth(); from++ {
			for to := from; to < h.Depth(); to++ {
				m := h.LevelMap(from, to)
				if len(m) != h.Dict(from).Len() {
					t.Fatalf("%s: LevelMap(%d, %d) has %d entries for %d members", phase, from, to, len(m), h.Dict(from).Len())
				}
				for id, got := range m {
					if want := h.Rollup(int32(id), from, to); got != want {
						t.Fatalf("%s: LevelMap(%d, %d)[%d] = %d, Rollup says %d", phase, from, to, id, got, want)
					}
				}
				if again := h.LevelMap(from, to); &again[0] != &m[0] {
					t.Fatalf("%s: LevelMap(%d, %d) was rebuilt with no growth in between", phase, from, to)
				}
			}
		}
		for _, tc := range cases {
			// at runs over the same, finer and coarser levels of each predicate.
			for at := 0; at < h.Depth(); at++ {
				var got []bool
				for _, p := range tc.preds {
					got = h.Accept(got, at, p.level, p.members)
				}
				if len(tc.preds) == 0 {
					if got != nil {
						t.Fatalf("%s, %s: a vector without a predicate", phase, tc.name)
					}
					continue
				}
				if want := bruteAccept(h, at, tc.preds); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s, ids at level %d:\n got %v\nwant %v", phase, tc.name, at, got, want)
				}
			}
		}
	}
	check(t, "first use")
	// Growth under maps in use: new base members under existing parents,
	// then under a new mid member.
	growAcceptHierarchy(h, 40, 55)
	h.MustAddMember("b-late", "m-late", "t0")
	check(t, "grown")
	if late, _ := h.Dict(1).Lookup("m-late"); !h.Accept(nil, 1, 2, []int32{0})[late] || h.Accept(nil, 1, 2, []int32{1})[late] {
		t.Error("the member registered last is not accepted under its own parent only")
	}
}

// TestLevelMapConcurrentReaders builds and reads the same maps and vectors
// from many goroutines at once (run under -race).
func TestLevelMapConcurrentReaders(t *testing.T) {
	h := acceptHierarchy(500)
	want := bruteAccept(h, 0, []levelMembers{{1, []int32{2, 3}}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if m := h.LevelMap(0, 2); m[13] != h.Rollup(13, 0, 2) {
					t.Error("LevelMap(0, 2)[13] differs from Rollup")
				}
				if got := h.Accept(nil, 0, 1, []int32{2, 3}); !reflect.DeepEqual(got, want) {
					t.Error("Accept differs from the brute-force vector")
				}
			}
		}()
	}
	wg.Wait()
}
