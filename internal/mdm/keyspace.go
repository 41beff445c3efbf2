package mdm

import (
	"encoding/binary"
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
// compare lexicographically by member id. Derived cubes, their joins and
// the shard merge all key on it; when the product of the cardinalities
// does not fit 64 bits the space is Wide and callers fall back to the
// byte-string key (WideKey).
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
		if hi != 0 {
			k.wide = true
			return k
		}
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

// Wide reports that the space exceeds 64 bits: Key, Stride and Decode are
// unusable and WideKey is the key.
func (k *KeySpace) Wide() bool { return k.wide }

// Stride returns the weight of position p in the composite key.
func (k *KeySpace) Stride(p int) uint64 { return k.stride[p] }

// Key encodes a coordinate, or its projection onto the positions pos when
// pos is non-nil; either way the encoded members align with the space's
// levels. It reports false when a member id lies outside its level's
// cardinality, or the coordinate has another number of members than the
// space has levels: such a coordinate has no key in this space, and equals
// no coordinate that has.
func (k *KeySpace) Key(c Coordinate, pos []int) (uint64, bool) {
	if pos == nil && len(c) != len(k.card) {
		return 0, false
	}
	var key uint64
	for p := range k.card {
		id := c[p]
		if pos != nil {
			id = c[pos[p]]
		}
		if uint64(uint32(id)) >= k.card[p] {
			return 0, false
		}
		key += uint64(id) * k.stride[p]
	}
	return key, true
}

// Decode writes the coordinate of key into c.
func (k *KeySpace) Decode(key uint64, c Coordinate) {
	for p := range c {
		c[p] = int32(key / k.stride[p] % k.card[p])
	}
}

// WideKey is the fallback key of a space that does not fit 64 bits (and
// of coordinates a space cannot encode): the byte-string packing of the
// coordinate, or of its projection onto pos when pos is non-nil.
func WideKey(c Coordinate, pos []int) string {
	n := len(c)
	if pos != nil {
		n = len(pos)
	}
	buf := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		id := c[i]
		if pos != nil {
			id = c[pos[i]]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return string(buf)
}
