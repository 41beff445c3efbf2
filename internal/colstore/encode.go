// Column encodings for segment files. Key columns hold non-negative
// dictionary codes and are stored frame-of-reference bit-packed
// (value − min, fixed width) or as a single constant. Measure columns
// are stored raw (8-byte floats), constant, frame-of-reference packed
// integers, or zig-zag delta-packed integers — whichever is smallest —
// exploiting that benchmark measures are frequently integral
// (quantities, cents). Bit-packed payloads carry 8 zero pad bytes so
// decoders can read whole 64-bit words without bounds arithmetic.
package colstore

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Key column encodings.
const (
	kencConst  = 0 // every row equals base; empty payload
	kencPacked = 1 // (code − base) bit-packed at width bits
)

// Measure column encodings.
const (
	mencRaw   = 0 // little-endian float64 bits per row
	mencConst = 1 // every row equals Float64frombits(base); empty payload
	mencFOR   = 2 // integral: (v − base) bit-packed, base = min as int64
	mencDelta = 3 // integral: zigzag(v[i]−v[i−1]) bit-packed, base = v[0]
)

// maxPackWidth caps bit-packed widths so that any value plus a 7-bit
// byte offset fits a single 64-bit word read. Wider measure ranges fall
// back to raw encoding, which they would barely compress anyway; key
// codes are int32, so their width never exceeds 32.
const maxPackWidth = 56

// packedLen returns the padded byte length of n width-bit values.
func packedLen(n int, width uint) int {
	return (n*int(width)+7)/8 + 8
}

// packU64 writes v (< 2^width) at slot i of a packed buffer.
func packU64(buf []byte, i int, width uint, v uint64) {
	bitpos := i * int(width)
	b, shift := bitpos>>3, uint(bitpos&7)
	word := binary.LittleEndian.Uint64(buf[b:])
	binary.LittleEndian.PutUint64(buf[b:], word|v<<shift)
}

// unpackU64 reads slot i of a packed buffer.
func unpackU64(buf []byte, i int, width uint) uint64 {
	bitpos := i * int(width)
	b, shift := bitpos>>3, uint(bitpos&7)
	return binary.LittleEndian.Uint64(buf[b:]) >> shift & (1<<width - 1)
}

// encodeKeys encodes a key column, returning the encoding tag, bit
// width, base, and payload. The payload may alias nothing (const).
func encodeKeys(codes []int32) (enc, width uint8, base uint64, payload []byte) {
	lo, hi := codes[0], codes[0]
	for _, c := range codes {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == hi {
		return kencConst, 0, uint64(uint32(lo)), nil
	}
	w := uint(bits.Len64(uint64(hi - lo)))
	payload = make([]byte, packedLen(len(codes), w))
	for i, c := range codes {
		packU64(payload, i, w, uint64(c-lo))
	}
	return kencPacked, uint8(w), uint64(uint32(lo)), payload
}

// decodeKeys decodes a key column payload into dst (len = rows).
func decodeKeys(dst []int32, enc, width uint8, base uint64, payload []byte) {
	switch enc {
	case kencConst:
		c := int32(uint32(base))
		for i := range dst {
			dst[i] = c
		}
	default: // kencPacked
		unpackWordsKeys(dst, int32(uint32(base)), uint(width), payload)
	}
}

// unpackWordsKeys is the batched packed-key decoder: one 64-bit load
// per group of values instead of one per value. After shifting off the
// sub-byte offset a word holds ≥57 usable bits, so it fully contains
// six values up to width 9, four up to 14, three up to 19, and two up
// to 28; the group
// members are extracted with independent shifts (no loop-carried
// dependency, unlike a running bit-buffer) and bounds-check-free
// stores. Byte-aligned widths skip the bit arithmetic entirely, and a
// short per-slot tail finishes whatever the group loop leaves (the
// payload's 8 pad bytes keep every whole-word read in bounds).
func unpackWordsKeys(dst []int32, lo int32, w uint, payload []byte) {
	switch w {
	case 8:
		for i := range dst {
			dst[i] = lo + int32(payload[i])
		}
		return
	case 16:
		for i := range dst {
			dst[i] = lo + int32(binary.LittleEndian.Uint16(payload[2*i:]))
		}
		return
	case 32:
		for i := range dst {
			dst[i] = lo + int32(binary.LittleEndian.Uint32(payload[4*i:]))
		}
		return
	}
	mask := uint64(1)<<w - 1
	n, i, bp := len(dst), 0, 0
	switch {
	case w <= 9: // six values per load
		w2, w3, w4, w5, step := 2*w, 3*w, 4*w, 5*w, 6*int(w)
		for ; i+6 <= n; i, bp = i+6, bp+step {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+6 : i+6]
			d[0] = lo + int32(word&mask)
			d[1] = lo + int32(word>>w&mask)
			d[2] = lo + int32(word>>w2&mask)
			d[3] = lo + int32(word>>w3&mask)
			d[4] = lo + int32(word>>w4&mask)
			d[5] = lo + int32(word>>w5&mask)
		}
	case w <= 14: // four values per load
		w2, w3, step := 2*w, 3*w, 4*int(w)
		for ; i+4 <= n; i, bp = i+4, bp+step {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+4 : i+4]
			d[0] = lo + int32(word&mask)
			d[1] = lo + int32(word>>w&mask)
			d[2] = lo + int32(word>>w2&mask)
			d[3] = lo + int32(word>>w3&mask)
		}
	case w <= 19: // three values per load
		w2, step := 2*w, 3*int(w)
		for ; i+3 <= n; i, bp = i+3, bp+step {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+3 : i+3]
			d[0] = lo + int32(word&mask)
			d[1] = lo + int32(word>>w&mask)
			d[2] = lo + int32(word>>w2&mask)
		}
	case w <= 28: // two values per load
		for ; i+2 <= n; i, bp = i+2, bp+2*int(w) {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+2 : i+2]
			d[0] = lo + int32(word&mask)
			d[1] = lo + int32(word>>w&mask)
		}
	}
	for ; i < n; i++ {
		dst[i] = lo + int32(unpackU64(payload, i, w))
	}
}

// integral reports whether every value is an exactly representable
// int64, the precondition for the integer measure encodings.
func integral(vals []float64) bool {
	for _, v := range vals {
		if v != math.Trunc(v) || v < -(1<<53) || v > 1<<53 {
			return false
		}
	}
	return true
}

// encodeMeas encodes a measure column, picking the smallest of the
// candidate encodings.
func encodeMeas(vals []float64) (enc, width uint8, base uint64, payload []byte) {
	const0 := vals[0]
	allConst := true
	for _, v := range vals {
		if v != const0 || math.Signbit(v) != math.Signbit(const0) {
			allConst = false
			break
		}
	}
	if allConst {
		return mencConst, 0, math.Float64bits(const0), nil
	}
	if integral(vals) {
		// Frame of reference over the values themselves.
		lo, hi := int64(vals[0]), int64(vals[0])
		// Deltas between consecutive values, zig-zag encoded.
		maxZig := uint64(0)
		prev := int64(vals[0])
		for _, fv := range vals {
			v := int64(fv)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			z := zigzag(v - prev)
			if z > maxZig {
				maxZig = z
			}
			prev = v
		}
		forW := uint(bits.Len64(uint64(hi - lo)))
		deltaW := uint(bits.Len64(maxZig))
		if forW <= maxPackWidth || deltaW <= maxPackWidth {
			if deltaW < forW && deltaW <= maxPackWidth || forW > maxPackWidth {
				payload = make([]byte, packedLen(len(vals), deltaW))
				prev = int64(vals[0])
				for i, fv := range vals {
					v := int64(fv)
					packU64(payload, i, deltaW, zigzag(v-prev))
					prev = v
				}
				return mencDelta, uint8(deltaW), uint64(int64(vals[0])), payload
			}
			payload = make([]byte, packedLen(len(vals), forW))
			for i, fv := range vals {
				packU64(payload, i, forW, uint64(int64(fv)-lo))
			}
			return mencFOR, uint8(forW), uint64(lo), payload
		}
	}
	payload = make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
	}
	return mencRaw, 64, 0, payload
}

// decodeMeas decodes a measure column payload into dst (len = rows).
func decodeMeas(dst []float64, enc, width uint8, base uint64, payload []byte) {
	switch enc {
	case mencConst:
		v := math.Float64frombits(base)
		for i := range dst {
			dst[i] = v
		}
	case mencFOR:
		unpackWordsFOR(dst, int64(base), uint(width), payload)
	case mencDelta:
		unpackWordsDelta(dst, int64(base), uint(width), payload)
	default: // mencRaw
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
}

// unpackWordsFOR is the batched frame-of-reference measure decoder;
// same group-load structure as unpackWordsKeys (widths above 28 — rare
// for FOR deltas — fall through to the per-slot tail).
func unpackWordsFOR(dst []float64, lo int64, w uint, payload []byte) {
	switch w {
	case 8:
		for i := range dst {
			dst[i] = float64(lo + int64(payload[i]))
		}
		return
	case 16:
		for i := range dst {
			dst[i] = float64(lo + int64(binary.LittleEndian.Uint16(payload[2*i:])))
		}
		return
	case 32:
		for i := range dst {
			dst[i] = float64(lo + int64(binary.LittleEndian.Uint32(payload[4*i:])))
		}
		return
	}
	mask := uint64(1)<<w - 1
	n, i, bp := len(dst), 0, 0
	switch {
	case w <= 9: // six values per load
		w2, w3, w4, w5, step := 2*w, 3*w, 4*w, 5*w, 6*int(w)
		for ; i+6 <= n; i, bp = i+6, bp+step {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+6 : i+6]
			d[0] = float64(lo + int64(word&mask))
			d[1] = float64(lo + int64(word>>w&mask))
			d[2] = float64(lo + int64(word>>w2&mask))
			d[3] = float64(lo + int64(word>>w3&mask))
			d[4] = float64(lo + int64(word>>w4&mask))
			d[5] = float64(lo + int64(word>>w5&mask))
		}
	case w <= 14: // four values per load
		w2, w3, step := 2*w, 3*w, 4*int(w)
		for ; i+4 <= n; i, bp = i+4, bp+step {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+4 : i+4]
			d[0] = float64(lo + int64(word&mask))
			d[1] = float64(lo + int64(word>>w&mask))
			d[2] = float64(lo + int64(word>>w2&mask))
			d[3] = float64(lo + int64(word>>w3&mask))
		}
	case w <= 19: // three values per load
		w2, step := 2*w, 3*int(w)
		for ; i+3 <= n; i, bp = i+3, bp+step {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+3 : i+3]
			d[0] = float64(lo + int64(word&mask))
			d[1] = float64(lo + int64(word>>w&mask))
			d[2] = float64(lo + int64(word>>w2&mask))
		}
	case w <= 28: // two values per load
		for ; i+2 <= n; i, bp = i+2, bp+2*int(w) {
			word := binary.LittleEndian.Uint64(payload[bp>>3:]) >> uint(bp&7)
			d := dst[i : i+2 : i+2]
			d[0] = float64(lo + int64(word&mask))
			d[1] = float64(lo + int64(word>>w&mask))
		}
	}
	for ; i < n; i++ {
		dst[i] = float64(lo + int64(unpackU64(payload, i, w)))
	}
}

// unpackWordsDelta is the word-at-a-time zig-zag delta measure decoder.
// The running sum is loop-carried, but each payload word is still loaded
// exactly once.
func unpackWordsDelta(dst []float64, v0 int64, w uint, payload []byte) {
	v := v0
	switch w {
	case 8:
		for i := range dst {
			v += unzigzag(uint64(payload[i]))
			dst[i] = float64(v)
		}
		return
	case 16:
		for i := range dst {
			v += unzigzag(uint64(binary.LittleEndian.Uint16(payload[2*i:])))
			dst[i] = float64(v)
		}
		return
	case 32:
		for i := range dst {
			v += unzigzag(uint64(binary.LittleEndian.Uint32(payload[4*i:])))
			dst[i] = float64(v)
		}
		return
	}
	mask := uint64(1)<<w - 1
	kFull := int(64 / w) // values fully inside a fresh word; hoists the division
	n, i, pos := len(dst), 0, 0
	var carry uint64
	var cb uint
	for i < n {
		word := binary.LittleEndian.Uint64(payload[pos:])
		pos += 8
		avail := uint(64)
		if cb != 0 {
			v += unzigzag(carry | word<<cb&mask)
			dst[i] = float64(v)
			i++
			word >>= w - cb
			avail -= w - cb
			cb = 0
		}
		k := kFull
		if uint(k)*w > avail {
			k--
		}
		if rem := n - i; k > rem {
			k = rem
		}
		d := dst[i : i+k]
		for j := range d {
			v += unzigzag(word & mask)
			d[j] = float64(v)
			word >>= w
		}
		i += k
		carry, cb = word, avail-uint(k)*w
	}
}

// gatherKeys decodes rows idx of a packed key payload densely: dst[k]
// is row idx[k] (len(dst) == len(idx)). A kencConst column carries no
// payload and is decoded for free, so packed is the only key encoding
// that reaches here.
func gatherKeys(dst []int32, width uint8, base uint64, payload []byte, idx []int32) {
	dst = dst[:len(idx)]
	lo, w := int32(uint32(base)), uint(width)
	for k, r := range idx {
		dst[k] = lo + int32(unpackU64(payload, int(r), w))
	}
}

// gatherMeas decodes rows idx of a measure payload densely: dst[k] is
// row idx[k] (len(dst) == len(idx)). It reports whether the encoding
// supports random access: mencRaw and mencFOR do, mencDelta does not
// (each value depends on the running sum) and mencConst never reaches
// here (decoded for free).
func gatherMeas(dst []float64, enc, width uint8, base uint64, payload []byte, idx []int32) bool {
	dst = dst[:len(idx)]
	switch enc {
	case mencRaw:
		for k, r := range idx {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*int(r):]))
		}
		return true
	case mencFOR:
		lo, w := int64(base), uint(width)
		for k, r := range idx {
			dst[k] = float64(lo + int64(unpackU64(payload, int(r), w)))
		}
		return true
	}
	return false
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }
