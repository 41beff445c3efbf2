package mdm

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// KeySpace is the composite-key codec of a tuple of levels. A cube cell
// is an address in the cross-product of its levels' member domains
// (Gray et al.'s data cube), so a coordinate ⟨id_0 … id_{n-1}⟩ maps to
// the mixed-radix number
//
//	key = Σ_p id_p · stride_p        stride_p = Π_{q>p} card_q
//
// over the levels' cardinalities — the same number the engine's dense
// kernels use as the accumulator slot. Keys compare like coordinates
// compare lexicographically by member id. Elsewhere a Slots table maps
// them to compact slots; past 64 bits the space is Wide and has no keys.
type KeySpace struct {
	card   []uint64
	stride []uint64
	wide   bool
}

// NewKeySpace lays out the key space of levels with the given
// cardinalities.
func NewKeySpace(cards []int) *KeySpace {
	k := &KeySpace{card: make([]uint64, len(cards)), stride: make([]uint64, len(cards))}
	size := uint64(1)
	for p := len(cards) - 1; p >= 0; p-- {
		k.card[p] = uint64(cards[p])
		k.stride[p] = size
		hi, lo := bits.Mul64(size, max(k.card[p], 1))
		k.wide = k.wide || hi != 0
		size = lo
	}
	return k
}

// KeySpace lays out the key space of a group-by set over the current
// cardinalities of its levels' dictionaries.
func (s *Schema) KeySpace(g GroupBy) *KeySpace {
	cards := make([]int, len(g))
	for p, ref := range g {
		cards[p] = s.Dict(ref).Len()
	}
	return NewKeySpace(cards)
}

// Wide reports that the space exceeds 64 bits: Keys, Stride and Member are
// unusable, and a coordinate is its own key.
func (k *KeySpace) Wide() bool { return k.wide }

// Size returns the number of coordinates in the space, Π |Dom(l_p)|, and
// false when that does not fit 64 bits.
func (k *KeySpace) Size() (uint64, bool) {
	size := uint64(1)
	for _, card := range k.card {
		size *= card
	}
	return size, !k.wide
}

// Stride returns the weight of position p in the composite key.
func (k *KeySpace) Stride(p int) uint64 { return k.stride[p] }

// NoKey stands for the key of a cell the space cannot encode. Every key
// is below the product of the cardinalities, which fits 64 bits, so no
// coordinate has it.
const NoKey = math.MaxUint64

// Keys encodes n cells whose member ids stand in columns, cols[p] at the
// space's level p, into one composite key per cell, column by column. A
// cell with an id outside its level's cardinality gets NoKey.
func (k *KeySpace) Keys(cols [][]int32, n int) []uint64 {
	keys := make([]uint64, n)
	for p, col := range cols {
		card, stride := k.card[p], k.stride[p]
		for i, id := range col[:n] {
			switch {
			case uint64(uint32(id)) >= card:
				keys[i] = NoKey
			case keys[i] != NoKey:
				keys[i] += uint64(id) * stride
			}
		}
	}
	return keys
}

// Member returns the member id at position p of key's coordinate.
func (k *KeySpace) Member(key uint64, p int) int32 {
	return int32(key / k.stride[p] % k.card[p])
}

// WideKey is the byte-string packing of a coordinate, or of its
// projection onto pos when pos is non-nil: the key of the string-keyed
// reference implementations the tests hold the program to.
func WideKey(c Coordinate, pos []int) string {
	if pos != nil {
		proj := make(Coordinate, len(pos))
		for i, at := range pos {
			proj[i] = c[at]
		}
		c = proj
	}
	buf := make([]byte, 0, 4*len(c))
	for _, id := range c {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return string(buf)
}
