package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
)

// Columnar result egress. The /assess and /query bodies are written
// straight from the result cube's columns, chunkRows rows at a time: no
// per-cell row structs, no reflection, and no whole-body buffer. A body
// of a few chunks is formatted and written by the handler goroutine; a
// longer one, under a statement that was given more than one worker, is
// formatted by that many goroutines while the handler writes their chunks
// in order. The bytes are exactly what encoding/json produces for the same
// response (compact, HTML-escaped, trailing newline); encode_test.go holds
// the encoding/json reference and compares the two byte for byte.

const (
	// chunkRows is how many rows are formatted between two writes: about
	// 64 KiB of an /assess body, large enough that a write is a small
	// share of formatting it, small enough that the first leaves early
	// and the chunks a parallel body holds in flight stay a few hundred
	// KiB.
	chunkRows = 512
	// chunkBytes is what a chunk buffer starts with, so that a typical
	// chunk does not regrow it.
	chunkBytes = 80 << 10
	// minParallelChunks is the shortest body that is worth starting
	// workers for.
	minParallelChunks = 4
	// laneChunks is how many chunks a worker may have formatted and not
	// yet written: one being written while it formats the next.
	laneChunks = 2
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

// encoder formats rows of one body into buf. Member names are escaped
// once per distinct id per body, into escaped, and copied from there for
// every further cell. It only reads the cube it encodes: cache hits share
// one cube between requests, and the workers of one body share it too.
type encoder struct {
	buf []byte
	// spare is the second chunk buffer of a worker: the one the handler
	// is writing while the worker formats into buf.
	spare []byte

	members []memberCol
	escaped []byte
	epoch   uint64 // bodies this encoder has worked on; stamps memberSpans
}

var encoderPool = sync.Pool{New: func() any {
	return &encoder{buf: make([]byte, 0, chunkBytes)}
}}

// getEncoder takes an encoder from the pool and points it at the
// dictionaries of a body's coordinate positions.
func getEncoder(dicts []*mdm.Dict) *encoder {
	e := encoderPool.Get().(*encoder)
	e.buf, e.escaped = e.buf[:0], e.escaped[:0]
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
	return e
}

func putEncoder(e *encoder) {
	for p := range e.members {
		e.members[p].names = nil // do not pin a dictionary from the pool
	}
	encoderPool.Put(e)
}

// body is the rows of a result as the driver sees them. Gray et al.'s
// cube is a relation, one self-contained row per cell, so any range of
// rows can be formatted without its neighbours.
type body struct {
	n     int         // rows
	dicts []*mdm.Dict // of the coordinate positions rows passes to member
	// rows appends rows [lo, hi) to e.buf, each but row 0 after a comma.
	rows func(e *encoder, lo, hi int)
}

// chunks is how many pieces the body is formatted and written in; an
// empty body has one, which holds the brackets.
func (b body) chunks() int { return max(1, (b.n+chunkRows-1)/chunkRows) }

// workers is how many goroutines format the body under a statement that
// was given budget of them: 1, the handler's own, unless the body is long
// enough to pay for starting more.
func (b body) workers(budget int) int {
	chunks := b.chunks()
	if budget < 2 || chunks < minParallelChunks {
		return 1
	}
	return min(budget, chunks)
}

// format is the one chunk loop: it formats chunks first, first+stride, …
// of b, handing each to emit, which returns the buffer the next one goes
// into, or false to stop. The head of the body is in e.buf when chunk 0 is
// formatted, and the tail follows the last row, so the chunks in order are
// the body.
func (e *encoder) format(b body, first, stride int, emit func(chunk []byte) ([]byte, bool)) {
	for k, chunks := first, b.chunks(); k < chunks; k += stride {
		lo := k * chunkRows
		hi := min(lo+chunkRows, b.n)
		b.rows(e, lo, hi)
		if hi == b.n {
			e.buf = append(e.buf, "]}\n"...)
		}
		var ok bool
		if e.buf, ok = emit(e.buf); !ok {
			return
		}
	}
}

// encodeBody writes head — a marshalled JSON object — to w with a
// trailing "rows" member holding b's rows, then the newline
// encoding/json's Encoder ends a value with. It returns the bytes written
// and the first write error, or ctx's once it is cancelled; after either,
// no further chunk is formatted.
//
// workers is b.workers of the statement's budget. With one, the calling
// goroutine formats and writes chunk after chunk from one pooled buffer.
// With more, worker i formats chunks i, i+workers, … into the two buffers
// of its own encoder while the calling goroutine — the only one that
// touches w, an http.ResponseWriter is not safe for anything else — writes
// them in order; it does not return before every worker has, and a panic
// on a worker is raised again here, where net/http's recover confines it
// to the connection.
func encodeBody(ctx context.Context, w io.Writer, head []byte, b body, workers int) (written int64, err error) {
	write := func(chunk []byte) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		var n int
		n, err = w.Write(chunk)
		written += int64(n)
		return err == nil
	}
	first := getEncoder(b.dicts)
	first.buf = append(first.buf, head[:len(head)-1]...)
	first.buf = append(first.buf, `,"rows":[`...)
	if workers < 2 {
		first.format(b, 0, 1, func(chunk []byte) ([]byte, bool) { return chunk[:0], write(chunk) })
		putEncoder(first)
		return written, err
	}

	type lane struct {
		e *encoder
		// out carries formatted chunks to the writer and free the
		// writer's word that one of them has been written; neither holds
		// more than laneChunks, so a send never blocks.
		out  chan []byte
		free chan struct{}
	}
	var (
		lanes    = make([]lane, workers)
		stop     atomic.Bool
		wg       sync.WaitGroup
		panicked atomic.Pointer[string]
	)
	for i := range lanes {
		l := &lanes[i]
		l.e = first
		if i > 0 {
			l.e = getEncoder(b.dicts)
		}
		if l.e.spare == nil {
			l.e.spare = make([]byte, 0, chunkBytes)
		}
		l.out, l.free = make(chan []byte, laneChunks), make(chan struct{}, laneChunks)
		l.free <- struct{}{} // the spare buffer
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(l.out) // ends the writer's wait if the lane ended early
			defer func() {
				if r := recover(); r != nil {
					stop.Store(true)
					msg := fmt.Sprintf("%v [recovered on an encode worker]\n%s", r, debug.Stack())
					panicked.CompareAndSwap(nil, &msg)
				}
			}()
			e := l.e
			e.format(b, i, workers, func(chunk []byte) ([]byte, bool) {
				l.out <- chunk
				_, ok := <-l.free
				e.spare, chunk = chunk, e.spare[:0]
				return chunk, ok && !stop.Load()
			})
		}(i)
	}
	for k, chunks := 0, b.chunks(); k < chunks; k++ {
		l := &lanes[k%workers]
		chunk, ok := <-l.out
		if !ok || !write(chunk) {
			break
		}
		l.free <- struct{}{}
	}
	stop.Store(true)
	for i := range lanes {
		close(lanes[i].free) // wakes a worker waiting for a buffer
	}
	wg.Wait()
	if msg := panicked.Load(); msg != nil {
		panic(*msg)
	}
	for i := range lanes {
		putEncoder(lanes[i].e)
	}
	return written, err
}

// retainedRows encodes what follows the header in an /assess body —
// `,"rows":[…]}` and the newline — into one allocation of n bytes, the
// length a streamed reply of the same columns measured. It is how a cache
// entry's rows are filled (qcache.Body); nil when ctx ended first.
func retainedRows(ctx context.Context, b body, n, workers int) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, n))
	// Under an empty header encodeBody writes the rows member alone: it
	// cuts the header's closing brace and adds nothing.
	if _, err := encodeBody(ctx, buf, []byte("}"), b, workers); err != nil {
		return nil
	}
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

// assessBody is the rows of an /assess result.
func assessBody(c exec.Columns) body {
	return body{len(c.Coords), c.Dicts, func(e *encoder, lo, hi int) { e.assessRows(c, lo, hi) }}
}

// assessRows appends cells [lo, hi) of an /assess result:
// {"coordinate":[…],"measure":…,"benchmark":…,"comparison":…,"label":…}.
func (e *encoder) assessRows(c exec.Columns, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"coordinate":[`...)
		for p, id := range c.Coords[i] {
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

// queryBody is the rows of a /query result.
func queryBody(fields []queryField, dicts []*mdm.Dict, coords []mdm.Coordinate) body {
	return body{len(coords), dicts, func(e *encoder, lo, hi int) { e.queryRows(fields, coords, lo, hi) }}
}

// queryRows appends cells [lo, hi) of a /query result, one object per
// cell keyed by level and measure name.
func (e *encoder) queryRows(fields []queryField, coords []mdm.Coordinate, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '{')
		coord := coords[i]
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
	}
}
