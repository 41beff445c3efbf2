package server

import (
	"bytes"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
)

// Columnar result egress. The /assess and /query bodies are written
// straight from the result cube's columns into one pooled buffer that is
// flushed to the client as it fills: no per-cell row structs, no
// reflection, and no whole-body buffer. The bytes are exactly what
// encoding/json produces for the same response (compact, HTML-escaped,
// trailing newline); encode_test.go holds the encoding/json reference
// and compares the two byte for byte.

// bodyFlushBytes is how full the body buffer gets before it is written
// out. The buffer is allocated with bodySlackBytes beyond that so the
// row that crosses the mark rarely regrows it.
const (
	bodyFlushBytes = 64 << 10
	bodySlackBytes = 4 << 10
)

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// unescaped when HTML escaping is on (its default).
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string under encoding/json's rules:
// short escapes for \" \\ \b \f \n \r \t, \u00XX for the other control
// bytes and for < > &, \ufffd for each invalid UTF-8 byte, and U+2028 and
// U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json formats a float64 — shortest
// round-trip digits, 'e' notation below 1e-6 and from 1e21 with a
// two-digit negative exponent trimmed to one — except that NaN and ±Inf,
// which encoding/json rejects, become null (the nulls of assess*).
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	if abs < 1<<53 {
		// Integer-valued (sums of integer measures, counts): every such
		// value is exact, so its digits are its shortest form. Zero is
		// left to strconv, which keeps the sign of -0.
		if i := int64(f); float64(i) == f && i != 0 {
			return strconv.AppendInt(dst, i, 10)
		}
	}
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// memberSpan locates one member's escaped, quoted name in
// encoder.escaped. It is valid for the body whose epoch it carries.
type memberSpan struct {
	off, end int
	epoch    uint64
}

// memberCol is one coordinate position of the body being encoded.
type memberCol struct {
	names []string     // the position's dictionary, read once per body
	spans []memberSpan // by member id
}

// encoder appends one body to buf and hands it to w in bodyFlushBytes
// pieces. Member names are escaped once per distinct id per body, into
// escaped, and copied from there for every further cell. It only reads
// the cube it encodes: cache hits share one cube between requests.
type encoder struct {
	w       io.Writer
	buf     []byte
	written int64
	err     error // first write error; nothing is written after it

	members []memberCol
	escaped []byte
	epoch   uint64 // bodies this encoder has written; stamps memberSpans
}

var encoderPool = sync.Pool{New: func() any {
	return &encoder{buf: make([]byte, 0, bodyFlushBytes+bodySlackBytes)}
}}

// encodeBody writes head — a marshalled JSON object — to w with a
// trailing "rows" member whose elements rows appends, then the newline
// encoding/json's Encoder ends a value with. dicts are the dictionaries
// of the coordinate positions rows passes to member. It returns the
// bytes written and the first write error; after one, rows stops at its
// next flush check and nothing more is formatted.
func encodeBody(w io.Writer, head []byte, dicts []*mdm.Dict, rows func(*encoder)) (int64, error) {
	e := encoderPool.Get().(*encoder)
	e.w, e.buf, e.written, e.err, e.escaped = w, e.buf[:0], 0, nil, e.escaped[:0]
	e.epoch++
	for len(e.members) < len(dicts) {
		e.members = append(e.members, memberCol{})
	}
	for p, d := range dicts {
		m := &e.members[p]
		m.names = d.Names()
		if cap(m.spans) < len(m.names) {
			m.spans = make([]memberSpan, len(m.names))
		}
		// Entries left by earlier bodies carry earlier epochs.
		m.spans = m.spans[:len(m.names)]
	}

	e.buf = append(e.buf, head[:len(head)-1]...)
	e.buf = append(e.buf, `,"rows":[`...)
	rows(e)
	e.buf = append(e.buf, "]}\n"...)
	e.flush()

	n, err := e.written, e.err
	e.w = nil
	for p := range dicts {
		e.members[p].names = nil // do not pin a dictionary from the pool
	}
	encoderPool.Put(e)
	return n, err
}

// encodeAssessRows is how a cache entry's rows are filled (qcache.Body):
// retainedRows of res, or nil when res has no columns to encode.
func encodeAssessRows(res *exec.Result, n int) []byte {
	cols, err := res.Columns()
	if err != nil {
		return nil
	}
	return retainedRows(cols, n)
}

// retainedRows encodes what follows the header in an /assess body —
// `,"rows":[…]}` and the newline — into one allocation of n bytes, the
// length a streamed reply of the same columns measured.
func retainedRows(cols exec.Columns, n int) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, n))
	// Under an empty header encodeBody writes the rows member alone: it
	// cuts the header's closing brace and adds nothing. A bytes.Buffer
	// does not fail a write.
	_, _ = encodeBody(buf, []byte("}"), cols.Dicts, func(e *encoder) { e.assessRows(cols) })
	return buf.Bytes()
}

// writeRetained writes the body encodeBody would have streamed for head
// from rows, the bytes retainedRows kept of the same result.
func writeRetained(w io.Writer, head, rows []byte) (int64, error) {
	n, err := w.Write(head[:len(head)-1])
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(rows)
	return int64(n + m), err
}

// flush writes the buffer out and reports whether the body can go on.
func (e *encoder) flush() bool {
	if e.err != nil {
		return false
	}
	n, err := e.w.Write(e.buf)
	e.written += int64(n)
	e.err = err
	e.buf = e.buf[:0]
	return err == nil
}

// rowDone flushes a full buffer; false means the client is gone.
func (e *encoder) rowDone() bool {
	return len(e.buf) < bodyFlushBytes || e.flush()
}

// member appends the quoted name of member id at coordinate position p.
func (e *encoder) member(p int, id int32) {
	m := &e.members[p]
	sp := &m.spans[id]
	if sp.epoch != e.epoch {
		sp.off = len(e.escaped)
		e.escaped = appendString(e.escaped, m.names[id])
		sp.end, sp.epoch = len(e.escaped), e.epoch
	}
	e.buf = append(e.buf, e.escaped[sp.off:sp.end]...)
}

// assessRows appends the cells of an /assess result:
// {"coordinate":[…],"measure":…,"benchmark":…,"comparison":…,"label":…}.
func (e *encoder) assessRows(c exec.Columns) {
	for i, coord := range c.Coords {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"coordinate":[`...)
		for p, id := range coord {
			if p > 0 {
				e.buf = append(e.buf, ',')
			}
			e.member(p, id)
		}
		e.buf = append(e.buf, `],"measure":`...)
		e.buf = appendFloat(e.buf, c.Measure[i])
		if c.Benchmark != nil {
			e.buf = append(e.buf, `,"benchmark":`...)
			e.buf = appendFloat(e.buf, c.Benchmark[i])
		} else {
			e.buf = append(e.buf, `,"benchmark":null`...)
		}
		e.buf = append(e.buf, `,"comparison":`...)
		e.buf = appendFloat(e.buf, c.Comparison[i])
		e.buf = append(e.buf, `,"label":`...)
		if c.Labels != nil {
			e.buf = appendString(e.buf, c.Labels[i])
		} else {
			e.buf = appendString(e.buf, labeling.NullLabel)
		}
		e.buf = append(e.buf, '}')
		if !e.rowDone() {
			return
		}
	}
}

// queryField is one member of a /query row object: a coordinate
// position (pos ≥ 0) or a measure column.
type queryField struct {
	key []byte // `"name":`
	pos int
	col []float64
}

// queryFields lists a /query row's members in the order encoding/json
// gives the keys of a map: sorted by name, a name used twice keeping its
// last value (a measure over a level, a later column over an earlier).
func queryFields(levels, measures []string, cols [][]float64) []queryField {
	byName := make(map[string]queryField, len(levels)+len(measures))
	for p, name := range levels {
		byName[name] = queryField{pos: p}
	}
	for j, name := range measures {
		byName[name] = queryField{pos: -1, col: cols[j]}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fields := make([]queryField, len(names))
	for k, name := range names {
		f := byName[name]
		f.key = append(appendString(nil, name), ':')
		fields[k] = f
	}
	return fields
}

// queryRows appends the cells of a /query result, one object per cell
// keyed by level and measure name.
func (e *encoder) queryRows(fields []queryField, coords []mdm.Coordinate) {
	for i, coord := range coords {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '{')
		for k := range fields {
			f := &fields[k]
			if k > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, f.key...)
			if f.pos >= 0 {
				e.member(f.pos, coord[f.pos])
			} else {
				e.buf = appendFloat(e.buf, f.col[i])
			}
		}
		e.buf = append(e.buf, '}')
		if !e.rowDone() {
			return
		}
	}
}
