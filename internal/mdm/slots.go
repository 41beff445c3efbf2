package mdm

import (
	"cmp"
	"slices"
)

// Slots is the program's one coordinate → slot table: it gives each
// coordinate of a KeySpace it has not met the next free slot, so slots
// count up from 0 in first-seen order and never move. The engine's kernel
// accumulates into columns indexed by slot; a cube's index is a Slots over
// its cells. Open addressing with linear probing over a power-of-two
// bucket array kept at most half full; a bucket holds slot+1, 0 is empty.
// A slot remembers its composite key, or in a space past 64 bits its
// coordinate, with a hash of the member ids standing in for the key.
type Slots struct {
	space  *KeySpace
	keys   []uint64 // slot → composite key, or the coordinate's hash when wide
	coords []int32  // slot-major coordinates of a wide space
	index  []int32  // bucket → slot+1, 0 = empty
	shift  uint     // 64 - log2(len(index))
}

// NewSlots returns an empty table over space with buckets for n slots.
func NewSlots(space *KeySpace, n int) *Slots {
	log := uint(4)
	for 1<<log < 2*n {
		log++
	}
	return &Slots{space: space, index: make([]int32, 1<<log), shift: 64 - log}
}

// Len is the number of slots assigned.
func (t *Slots) Len() int { return len(t.keys) }

// fibHash is 2^64/φ: multiplying by it and keeping the top bits spreads
// mixed-radix keys, whose low digits are the last level, over the buckets.
const fibHash = 0x9E3779B97F4A7C15

// Assign translates composite keys of a space that fits 64 bits into
// slots in place, assigning the next free slot to every key it meets for
// the first time. It is the kernel's per-row path: a held key is found
// without a call.
func (t *Slots) Assign(keys []uint64) {
	for i, k := range keys {
		mask := len(t.index) - 1
		for h := int(k * fibHash >> t.shift); ; h = (h + 1) & mask {
			if s := t.index[h]; s == 0 {
				keys[i] = uint64(t.slot(k, nil, true))
			} else if t.keys[s-1] != k {
				continue
			} else {
				keys[i] = uint64(s - 1)
			}
			break
		}
	}
}

// AssignCoord returns the slot of coord, a coordinate of a space past 64
// bits, assigning the next free one if the table has not met it.
func (t *Slots) AssignCoord(coord Coordinate) int32 {
	return t.slot(wideHash(coord), coord, true)
}

// Index returns the slot of each of n coordinates given as columns aligned
// with the space's levels, assigning slots to new ones. A coordinate with
// a member id outside its level's cardinality gets -1 and no slot.
func (t *Slots) Index(cols [][]int32, n int) []int32 { return t.probe(cols, n, true) }

// Find is Index without assigning: -1 where the table holds no slot.
func (t *Slots) Find(cols [][]int32, n int) []int32 { return t.probe(cols, n, false) }

func (t *Slots) probe(cols [][]int32, n int, assign bool) []int32 {
	at := make([]int32, n)
	if !t.space.wide {
		for i, k := range t.space.Keys(cols, n) {
			at[i] = -1
			if k != NoKey {
				at[i] = t.slot(k, nil, assign)
			}
		}
		return at
	}
	coord := make(Coordinate, len(cols))
	for i := range at {
		at[i] = -1
		in := true
		for p, col := range cols {
			coord[p] = col[i]
			in = in && uint64(uint32(col[i])) < t.space.card[p]
		}
		if in {
			at[i] = t.slot(wideHash(coord), coord, assign)
		}
	}
	return at
}

// Absorb assigns a slot to every coordinate src, a table over the same
// space, holds: at[s] is the slot of src's slot s.
func (t *Slots) Absorb(src *Slots) []uint64 {
	at := slices.Clone(src.keys)
	if !t.space.wide {
		t.Assign(at)
		return at
	}
	for s := range at {
		at[s] = uint64(t.AssignCoord(src.coord(s)))
	}
	return at
}

// Member returns the member id at position p of slot s's coordinate.
func (t *Slots) Member(s, p int) int32 {
	if t.space.wide {
		return t.coord(s)[p]
	}
	return t.space.Member(t.keys[s], p)
}

// Sorted returns every slot in ascending coordinate (and composite-key) order.
func (t *Slots) Sorted() []int {
	slots := make([]int, t.Len())
	for s := range slots {
		slots[s] = s
	}
	if t.space.wide {
		slices.SortFunc(slots, func(a, b int) int { return slices.Compare(t.coord(a), t.coord(b)) })
	} else {
		slices.SortFunc(slots, func(a, b int) int { return cmp.Compare(t.keys[a], t.keys[b]) })
	}
	return slots
}

// slot finds the slot of key k — of coord, whose hash k is, in a wide
// space — and gives a key the table does not hold the next slot when
// assign is set, -1 otherwise.
func (t *Slots) slot(k uint64, coord Coordinate, assign bool) int32 {
	mask := len(t.index) - 1
	for h := int(k * fibHash >> t.shift); ; h = (h + 1) & mask {
		s := t.index[h]
		switch {
		case s == 0 && !assign:
			return -1
		case s == 0:
			t.keys = append(t.keys, k)
			t.coords = append(t.coords, coord...)
			t.index[h] = int32(len(t.keys))
			if 2*len(t.keys) > len(t.index) {
				t.rehash()
			}
			return int32(len(t.keys) - 1)
		case t.keys[s-1] == k && (coord == nil || slices.Equal(t.coord(int(s-1)), coord)):
			return s - 1
		}
	}
}

// rehash doubles the bucket array and re-inserts every slot under its
// key; the slots themselves stay where they are.
func (t *Slots) rehash() {
	t.shift--
	t.index = make([]int32, 2*len(t.index))
	mask := len(t.index) - 1
	for s, k := range t.keys {
		h := int(k * fibHash >> t.shift)
		for t.index[h] != 0 {
			h = (h + 1) & mask
		}
		t.index[h] = int32(s + 1)
	}
}

func (t *Slots) coord(s int) Coordinate {
	w := len(t.space.card)
	return t.coords[s*w : (s+1)*w]
}

// wideHash mixes a coordinate's member ids into the stand-in key of a
// wide space.
func wideHash(coord Coordinate) uint64 {
	h := uint64(len(coord))
	for _, id := range coord {
		h = (h ^ uint64(uint32(id))) * fibHash
		h ^= h >> 32
	}
	return h
}
