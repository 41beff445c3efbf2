package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
)

// The float kernel: shortest round-trip digits of a float64 by Giulietti's
// Schubfach ("The Schubfach way to render doubles", 2020, as in the JDK's
// DoubleToDecimal), written in encoding/json's layout. For a finite v it
// produces exactly the bytes of strconv.AppendFloat(dst, v, 'f' or 'e',
// -1, 64) with encoding/json's choice of format and its e-09 → e-9
// clean-up; encode_test.go holds strconv and encoding/json to it.
//
// A double v = c·2^q has a rounding interval R: the reals that round to v.
// Schubfach picks k so that R is between one and ten units of 10^k wide,
// and scales v and R's ends by 10^-k with one 126-bit approximation g of
// 10^-k and three products rounded to odd (rop). With s = ⌊v·10^-k⌋, the
// shortest decimal in R is then 10·⌊s/10⌋ or the next multiple of ten
// (one digit shorter), else s or s+1, each times 10^k.

const (
	floatP    = 53    // precision of a float64, hidden bit included
	floatQMin = -1074 // exponent q of the least subnormal, 2^-1074
	floatCMin = 1 << (floatP - 1)
	floatKMin = -324
	floatKMax = 292
	mask63    = 1<<63 - 1
)

// pow10Hi and pow10Lo are g = ⌊10^-k·2^-r⌋ + 1 for k in [floatKMin,
// floatKMax], where r = ⌊log2 10^-k⌋ − 125 puts g in (2^125, 2^126]:
// pow10Hi[k−floatKMin] = g >> 63 and pow10Lo[k−floatKMin] = g mod 2^63.
var pow10Hi, pow10Lo = func() (hi, lo [floatKMax - floatKMin + 1]uint64) {
	ten := big.NewInt(10)
	for k := floatKMin; k <= floatKMax; k++ {
		r := flog2pow10(-k) - 125
		g := new(big.Int)
		if k <= 0 {
			g.Exp(ten, big.NewInt(int64(-k)), nil) // 10^-k, exact
			if r >= 0 {
				g.Rsh(g, uint(r))
			} else {
				g.Lsh(g, uint(-r))
			}
		} else {
			// 10^-k·2^-r with -r > 125: a quotient of integers.
			g.Lsh(big.NewInt(1), uint(-r))
			g.Quo(g, new(big.Int).Exp(ten, big.NewInt(int64(k)), nil))
		}
		g.Add(g, big.NewInt(1))
		i := k - floatKMin
		hi[i] = new(big.Int).Rsh(g, 63).Uint64()
		lo[i] = g.Uint64() & mask63
	}
	return hi, lo
}()

// flog10pow2 is ⌊log10 2^e⌋, flog10ThreeQuartersPow2 ⌊log10(¾·2^e)⌋ and
// flog2pow10 ⌊log2 10^e⌋, each exact over the exponents of a float64.
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// rop is cp·g·2^-127 rounded to odd, g = g1·2^63 + g0.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&mask63+mask63)>>63
}

// shortest returns the shortest decimal d·10^k in the rounding interval
// of c·2^q, the one closest to it among those of that length, the even
// one on a tie. d may end in zeros.
//
// The JDK tries the shorter candidates from s ≥ 100 and scales the two
// least subnormals' c by ten (c < C_TINY = 3): Java's Double.toString
// keeps at least two digits. JSON's shortest form may have one (5e-324,
// 8e-323), so here the shorter candidates are tried from s ≥ 10 and c is
// never scaled; the interval is between one and ten units of 10^k wide
// at every c and q, so it still holds at most one multiple of ten.
func shortest(q int, c uint64) (d uint64, k int) {
	out := c & 1 // an odd c's interval excludes its ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != floatCMin || q == floatQMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// At an exact power of two the interval below is half as wide.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g1, g0 := pow10Hi[k-floatKMin], pow10Lo[k-floatKMin]
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	s := vb >> 2
	if s >= 10 {
		// One digit shorter: 10·⌊s/10⌋ and the next multiple of ten.
		sp, _ := bits.Mul64(s, 1844674407370955168) // ⌊2^64/10⌋ + 7
		sp10 := 10 * sp
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both are in the interval: the closer, the even one on a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// pow10 holds 10^0 … 10^19.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

// digitPairs holds the two ASCII digits of 0 … 99, the first in the low
// byte.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// ascii8 is the 8 ASCII digits of x < 10^8, leading zeros included, the
// first in the low byte: what an 8-byte little-endian store writes.
func ascii8(x uint32) uint64 {
	hi, lo := x/10000, x%10000
	return uint64(digitPairs[hi/100]) | uint64(digitPairs[hi%100])<<16 |
		uint64(digitPairs[lo/100])<<32 | uint64(digitPairs[lo%100])<<48
}

// put17 writes the 17 digits of f < 10^17 to b[:17].
func put17(b []byte, f uint64) {
	_ = b[16]
	b[0] = byte('0' + f/1e16)
	f %= 1e16
	binary.LittleEndian.PutUint64(b[1:], ascii8(uint32(f/1e8)))
	binary.LittleEndian.PutUint64(b[9:], ascii8(uint32(f%1e8)))
}

// digits is how many decimal digits 0 < d < 10^19 has.
func digits(d uint64) int {
	n := flog10pow2(64 - bits.LeadingZeros64(d))
	if d >= pow10[n] {
		n++
	}
	return n
}

// maxFloatBytes is the room appendFloat makes at the end of dst: a sign,
// at most 24 bytes more (0.00000ddddddddddddddddd), and what an 8-byte
// digit store spills past the last digit.
const maxFloatBytes = 32

// appendFloat appends f as encoding/json formats a float64 — shortest
// round-trip digits, 'e' notation below 1e-6 and from 1e21, e-7 rather
// than strconv's e-07 — except that NaN and ±Inf, which encoding/json
// rejects, become null (the nulls of assess*).
func appendFloat(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	bq := int(u>>(floatP-1)) & 0x7FF
	if bq == 0x7FF {
		return append(dst, "null"...)
	}
	dst = slices.Grow(dst, maxFloatBytes)
	n := len(dst)
	b := dst[n : n+maxFloatBytes]
	i := 0
	if u>>63 != 0 {
		b[0] = '-'
		i = 1
	}
	t := u & (floatCMin - 1)
	var d uint64
	var k int
	switch {
	case bq != 0:
		c := floatCMin | t
		if mq := 1 - floatQMin - bq; 0 <= mq && mq < floatP && c>>mq<<mq == c {
			// An integer below 2^53: its own digits are its shortest form.
			return dst[:n+i+putInt(b[i:], c>>mq)]
		}
		d, k = shortest(bq-1+floatQMin, c)
	case t == 0:
		b[i] = '0'
		return dst[:n+i+1]
	default: // subnormal
		d, k = shortest(floatQMin, t)
	}
	return dst[:n+i+putDecimal(b[i:], d, k)]
}

// putInt writes the digits of 0 < x < 10^16 to b[:16] and returns their
// count; what follows them in b is not part of the number.
func putInt(b []byte, x uint64) int {
	nd := digits(x)
	if nd <= 8 {
		binary.LittleEndian.PutUint64(b, ascii8(uint32(x))>>(8*(8-nd)))
		return nd
	}
	binary.LittleEndian.PutUint64(b, ascii8(uint32(x/1e8))>>(8*(16-nd)))
	binary.LittleEndian.PutUint64(b[nd-8:], ascii8(uint32(x%1e8)))
	return nd
}

// putDecimal writes d·10^k (d > 0) to b as encoding/json does — 'e'
// notation below 1e-6 and from 1e21, else 'f' — without the trailing
// zeros of d, and returns the bytes written.
func putDecimal(b []byte, d uint64, k int) int {
	_ = b[23]
	nd := digits(d)
	f := d * pow10[17-nd] // 17 digits, the point after the dp-th of them
	dp := k + nd
	// A double's shortest decimal is below 10^-6 exactly when the double
	// is below the one nearest 1e-6, and at least 10^21 exactly when the
	// double is, so the exponent decides as encoding/json's comparisons do.
	switch {
	case dp > 21 || dp < -5:
		put17(b[1:18], f)
		b[0], b[1] = b[1], '.'
		n := trimZeros(b[:18], 2)
		if n == 2 {
			n = 1 // one digit: no point
		}
		b[n] = 'e'
		x := dp - 1
		if x < 0 {
			b[n+1], x = '-', -x
		} else {
			b[n+1] = '+'
		}
		return n + 2 + putInt(b[n+2:], uint64(x))
	case dp <= 0:
		// 0.000ddd: the first digit is not a zero, so the point stays.
		b[0], b[1] = '0', '.'
		for j := 2; j < 2-dp; j++ {
			b[j] = '0'
		}
		put17(b[2-dp:19-dp], f)
		return trimZeros(b[:19-dp], 2-dp)
	case dp < 17:
		put17(b[1:18], f)
		copy(b[:dp], b[1:dp+1])
		b[dp] = '.'
		if n := trimZeros(b[:18], dp+1); n > dp+1 {
			return n
		}
		return dp
	}
	put17(b, f)
	for j := 17; j < dp; j++ {
		b[j] = '0'
	}
	return dp
}

// trimZeros is the length of b without its trailing '0's, but at least
// from.
func trimZeros(b []byte, from int) int {
	n := len(b)
	for n > from && b[n-1] == '0' {
		n--
	}
	return n
}
