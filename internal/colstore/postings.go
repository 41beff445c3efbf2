// Postings: a per-segment inverted index from base-level code to row
// ids, so a predicate finds its rows in time proportional to how many
// there are instead of sweeping every code of the column. One section
// per indexed key column:
//
//	(ncodes+1) × u32 offsets    offsets[i] = rows whose code < base+i
//	rows × width-bit row ids    grouped by code, ascending inside a group
//
// where base is the column's frame-of-reference base and width is
// bits.Len(rows−1). Rows of code base+i are ids[offsets[i]:offsets[i+1]].
// A column that is non-decreasing inside the segment (the sort key of a
// sorted store) stores the offsets alone: its row ids are the identity,
// so the rows of a code are the range [offsets[i], offsets[i+1]).
//
// Sections are read straight off the blob like any payload — nothing is
// resident per open segment — and are validated where their CRC is
// verified: once per open segment on stable (mmap) blobs, every fetch
// on pread.
package colstore

import (
	"encoding/binary"
	"math/bits"
	"sort"
)

// Postings kinds.
const (
	postNone   = 0 // not indexed: predicates sweep the column's codes
	postSorted = 1 // offsets only; row ids are the identity
	postFull   = 2 // offsets and bit-packed row ids
)

// postMeta describes one column's postings section.
type postMeta struct {
	kind, width uint8 // width: bits per row id (postFull)
	ncodes      int   // offsets cover codes [base, base+ncodes)
	off, size   int64
	crc         uint32
}

// buildPostings groups col's row ids by code with one counting sort. lo
// is the column's minimum code. A column whose code span exceeds its
// row count is left unindexed (kind postNone, nil payload): the offsets
// table would outweigh the row ids it indexes, and a segment that small
// relative to its dictionary is cheap to sweep.
func buildPostings(col []int32, lo int32) (postMeta, []byte) {
	hi, sorted := lo, true
	for i, c := range col {
		if c > hi {
			hi = c
		}
		if i > 0 && c < col[i-1] {
			sorted = false
		}
	}
	n := int(hi-lo) + 1
	if n > len(col) {
		return postMeta{}, nil
	}
	next := make([]uint32, n+1)
	for _, c := range col {
		next[c-lo+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	pm := postMeta{kind: postSorted, ncodes: n}
	size := 4 * (n + 1)
	if !sorted {
		pm.kind, pm.width = postFull, uint8(bits.Len(uint(len(col)-1)))
		size += packedLen(len(col), uint(pm.width))
	}
	payload := make([]byte, size)
	for i, o := range next {
		binary.LittleEndian.PutUint32(payload[4*i:], o)
	}
	if !sorted {
		// next[i] is now the write cursor of code lo+i's group.
		ids := payload[4*(n+1):]
		for r, c := range col {
			packU64(ids, int(next[c-lo]), uint(pm.width), uint64(r))
			next[c-lo]++
		}
	}
	return pm, payload
}

// check validates a footer entry against the segment's row count and
// the key column it indexes, returning the section length it implies.
func (pm *postMeta) check(rows int, km *keyMeta) (want int64, err error) {
	if km.enc != kencPacked {
		return 0, corruptf("postings on an unpacked column")
	}
	if pm.ncodes < 1 || pm.ncodes > rows || int64(pm.ncodes) > int64(1)<<km.width {
		return 0, corruptf("postings cover %d codes of %d rows at %d bits", pm.ncodes, rows, km.width)
	}
	want = 4 * (int64(pm.ncodes) + 1)
	switch pm.kind {
	case postSorted:
	case postFull:
		if int(pm.width) != bits.Len(uint(rows-1)) || pm.width > maxPackWidth {
			return 0, corruptf("postings row ids packed at %d bits for %d rows", pm.width, rows)
		}
		want += int64(packedLen(rows, uint(pm.width)))
	default:
		return 0, corruptf("unknown postings kind %d", pm.kind)
	}
	return want, nil
}

// validate checks a CRC-clean section's content: offsets start at zero,
// never decrease and end at rows, and the row ids are a permutation of
// [0, rows) — so no posting can set a bit outside the selection bitmap
// and a predicate's offset-derived match count equals the bits it sets.
func (pm *postMeta) validate(p []byte, rows int) error {
	prev := uint32(0)
	for i := 0; i <= pm.ncodes; i++ {
		o := binary.LittleEndian.Uint32(p[4*i:])
		if o < prev || i == 0 && o != 0 {
			return corruptf("postings offsets out of order")
		}
		prev = o
	}
	if int(prev) != rows {
		return corruptf("postings index %d rows of %d", prev, rows)
	}
	if pm.kind != postFull {
		return nil
	}
	ids, w := p[4*(pm.ncodes+1):], uint(pm.width)
	seen := make([]uint64, (rows+63)>>6)
	for k := 0; k < rows; k++ {
		r := unpackU64(ids, k, w)
		if r >= uint64(rows) || seen[r>>6]>>(r&63)&1 != 0 {
			return corruptf("postings row ids are not a permutation")
		}
		seen[r>>6] |= 1 << (r & 63)
	}
	return nil
}

// postings is a validated section, viewed in place.
type postings struct {
	lo   int32  // code of offsets[0]
	n    int    // codes covered
	offs []byte // (n+1) × u32
	ids  []byte // packed row ids; nil when the ids are the identity
	w    uint
}

func (p *postings) view(pm *postMeta, lo int32, section []byte) {
	p.lo, p.n, p.w = lo, pm.ncodes, uint(pm.width)
	p.offs, p.ids = section[:4*(pm.ncodes+1)], nil
	if pm.kind == postFull {
		p.ids = section[len(p.offs):]
	}
}

func (p *postings) off(i int) int { return int(binary.LittleEndian.Uint32(p.offs[4*i:])) }

// slot is c's position in the offsets table; in [0, n) for clipped codes.
func (p *postings) slot(c int32) int { return int(int64(c) - int64(p.lo)) }

// clip returns the part of a sorted code list the section covers.
func (p *postings) clip(codes []int32) []int32 {
	a := sort.Search(len(codes), func(i int) bool { return codes[i] >= p.lo })
	b := sort.Search(len(codes), func(i int) bool { return p.slot(codes[i]) >= p.n })
	return codes[a:b]
}

// count returns how many rows carry one of the (clipped) codes.
func (p *postings) count(codes []int32) int {
	n := 0
	for _, c := range codes {
		i := p.slot(c)
		n += p.off(i+1) - p.off(i)
	}
	return n
}

// fill sets the bit of every row that carries one of the (clipped)
// codes; sel must be zeroed. Work is proportional to the rows set.
func (p *postings) fill(sel []uint64, codes []int32) {
	for _, c := range codes {
		i := p.slot(c)
		a, b := p.off(i), p.off(i+1)
		if p.ids == nil {
			setRange(sel, a, b)
			continue
		}
		for k := a; k < b; k++ {
			r := unpackU64(p.ids, k, p.w)
			sel[r>>6] |= 1 << (r & 63)
		}
	}
}

// setRange sets bits [a, b) of sel.
func setRange(sel []uint64, a, b int) {
	if a >= b {
		return
	}
	wa, wb := a>>6, (b-1)>>6
	first := ^uint64(0) << (uint(a) & 63)
	last := ^uint64(0) >> (63 - uint(b-1)&63)
	if wa == wb {
		sel[wa] |= first & last
		return
	}
	sel[wa] |= first
	for w := wa + 1; w < wb; w++ {
		sel[w] = ^uint64(0)
	}
	sel[wb] |= last
}
