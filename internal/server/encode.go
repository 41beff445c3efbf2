package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/qcache"
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
	// sent, when not nil, is handed the rows of each chunk, in order, by
	// the goroutine that writes them, once they are written.
	sent func(rows []byte)
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
			e.buf = append(e.buf, rowsTail...)
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
	chunks := b.chunks()
	// wrote writes chunk k and hands its rows to b.sent: chunk 0 begins
	// with the head, and the last chunk ends with the tail.
	wrote := func(k int, chunk []byte) bool {
		if !write(chunk) {
			return false
		}
		if b.sent != nil {
			lo, hi := 0, len(chunk)
			if k == 0 {
				lo = len(head) - 1 + len(rowsHead)
			}
			if k == chunks-1 {
				hi -= len(rowsTail)
			}
			b.sent(chunk[lo:hi])
		}
		return true
	}
	first := getEncoder(b.dicts)
	first.buf = append(first.buf, head[:len(head)-1]...)
	first.buf = append(first.buf, rowsHead...)
	if workers < 2 {
		k := 0
		first.format(b, 0, 1, func(chunk []byte) ([]byte, bool) {
			k++
			return chunk[:0], wrote(k-1, chunk)
		})
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
	for k := 0; k < chunks; k++ {
		l := &lanes[k%workers]
		chunk, ok := <-l.out
		if !ok || !wrote(k, chunk) {
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

// rowsHead and rowsTail are what a body's rows follow and what ends it:
// the part of an /assess body a cache entry keeps is rowsHead, the rows
// and rowsTail.
const (
	rowsHead = `,"rows":[`
	rowsTail = "]}\n"
)

// rowsCopy passes what is written to w on and appends what follows the
// first skip bytes, the header's, to one buffer: for an /assess body, the
// part a cache entry keeps (qcache.Body). It keeps none once the copy
// outgrows room bytes, so room 0 copies nothing. The buffer is sized at
// the first write after the header, to that chunk times the body's
// chunks (encodeBody writes a chunk at a time, and the first holds
// min(rows, chunkRows) rows of the rows).
type rowsCopy struct {
	w    io.Writer
	skip int
	room int64 // below 0 once the copy outgrew it
	rows int
	buf  []byte
}

func (c *rowsCopy) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	k := min(c.skip, n)
	c.skip -= k
	if c.room -= int64(n - k); c.room < 0 {
		c.buf = nil
	} else if n > k {
		if c.buf == nil {
			size := int64(n-k) * int64(max(1, (c.rows+chunkRows-1)/chunkRows))
			c.buf = make([]byte, 0, min(size, c.room+int64(n-k)))
		}
		c.buf = append(c.buf, p[k:n]...)
	}
	return n, err
}

// bytes returns the copy in an allocation of its length, or nil if it
// outgrew room: a copy the estimate left room in is moved once more.
func (c *rowsCopy) bytes() []byte {
	if c.room < 0 || cap(c.buf) == len(c.buf) {
		return c.buf
	}
	return append(make([]byte, 0, len(c.buf)), c.buf...)
}

// writeRetained writes the body encodeBody would have streamed for head
// from rows, the bytes a rowsCopy kept of the same result.
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
func assessBody(c exec.Columns) body { return reuseBody(c, nil, nil, nil) }

// base is an earlier reply of the same statement, as the cache keeps it
// with a base entry (qcache.Base): the columns of the result it was
// encoded from and where each of its rows lies, row i at
// bufs[at[i].buf][at[i].lo:at[i].hi], without the comma before it. Rows
// that followed each other in the reply that wrote them, and lie in one
// buffer, lie there one comma apart.
type base struct {
	cols exec.Columns
	bufs [][]byte
	at   []rowAt
}

type rowAt struct{ buf, lo, hi int32 }

// Bytes is what the base holds besides the result's columns: its
// buffers and its row table.
func (b *base) Bytes() int64 {
	n := int64(cap(b.at))*12 + int64(cap(b.bufs))*24
	for _, buf := range b.bufs {
		n += int64(cap(buf))
	}
	return n
}

// baseOf is the base the cache handed body to encode against, if any.
func baseOf(body *qcache.Body) *base {
	b, _ := body.Base().(*base)
	return b
}

// match walks c's rows and the base's by coordinate, both in
// SortByCoordinate order, and returns for each row of c the base row that
// wrote the bytes it would write, or -1: same coordinate, same measure,
// benchmark and comparison bits, same label code. Coordinates that differ
// are ordered through the dictionaries' rank tables, as the sort orders
// them, so members added since the base keep the walk in step. It returns
// nil, and no row, for a nil base, and when the two results do not share
// their coordinate dictionaries, their benchmark column's presence or
// their label names.
func (b *base) match(c exec.Columns) (from []int32, reused int) {
	if b == nil {
		return nil, 0
	}
	o := b.cols
	if !slices.Equal(o.Dicts, c.Dicts) || (o.Benchmark == nil) != (c.Benchmark == nil) ||
		(o.Labels == nil) != (c.Labels == nil) || c.Labels != nil && !slices.Equal(o.Labels.Names, c.Labels.Names) {
		return nil, 0
	}
	ranks := make([][]int32, len(c.Dicts))
	for p, d := range c.Dicts {
		ranks[p] = d.Ranks()
	}
	// order compares c's row i with the base's row j by coordinate.
	order := func(i, j int) int32 {
		for p, rank := range ranks {
			if x, y := c.Keys[p][i], o.Keys[p][j]; x != y {
				return rank[x] - rank[y]
			}
		}
		return 0
	}
	same := func(x, y []float64, i, j int) bool {
		return x == nil || math.Float64bits(x[i]) == math.Float64bits(y[j])
	}
	from = make([]int32, len(c.Measure))
	j := 0
	for i := range from {
		from[i] = -1
		for j < len(o.Measure) {
			d := order(i, j)
			if d > 0 {
				j++
				continue
			}
			if d == 0 {
				if same(c.Measure, o.Measure, i, j) && same(c.Benchmark, o.Benchmark, i, j) &&
					same(c.Comparison, o.Comparison, i, j) && (c.Labels == nil || c.Labels.Codes[i] == o.Labels.Codes[j]) {
					from[i] = int32(j)
					reused++
				}
				j++
			}
			break
		}
	}
	return from, reused
}

// reuseBody is the rows of an /assess result encoded against b: row i is
// copied from the base's row from[i], and formatted when that is -1 (or
// from is nil), in the same chunks and lanes as any body, so the bytes are
// the same. Rows that lie one comma apart in the base are copied in one
// piece. lens, when not nil, receives each row's length, the comma before
// it included.
func reuseBody(c exec.Columns, b *base, from, lens []int32) body {
	tails := labelTails(c.Labels)
	if from == nil {
		return body{n: len(c.Measure), dicts: c.Dicts, rows: func(e *encoder, lo, hi int) { e.assessRows(c, tails, lens, lo, hi) }}
	}
	return body{n: len(c.Measure), dicts: c.Dicts, rows: func(e *encoder, lo, hi int) {
		for i := lo; i < hi; {
			j := from[i]
			if j < 0 {
				k := i + 1
				for k < hi && from[k] < 0 {
					k++
				}
				e.assessRows(c, tails, lens, i, k)
				i = k
				continue
			}
			first := b.at[j]
			last, k := first, i+1
			for ; k < hi && from[k] == from[k-1]+1; k++ {
				next := b.at[from[k]]
				if next.buf != last.buf || next.lo != last.hi+1 {
					break
				}
				last = next
			}
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, b.bufs[first.buf][first.lo:last.hi]...)
			if lens != nil {
				for t := i; t < k; t++ {
					at := b.at[from[t]]
					lens[t] = at.hi - at.lo + int32(min(t, 1))
				}
			}
			i = k
		}
	}}
}

// baseCopy builds, as a reply's chunks are written (body.sent), the base
// it leaves for the next reply: a row copied from the old base lies where
// it lay, and a formatted row is copied into one new buffer. So an append
// that changed a seventh of the cells copies a seventh of the rows.
type baseCopy struct {
	old  *base
	from []int32 // as reuseBody's: nil when every row was formatted
	lens []int32 // each row's length, the comma before it included
	next *base   // holds nothing of old but its buffers
	// remap is where each buffer of old is in next.bufs, 0 for none: the
	// new buffer is next.bufs[0] once done.
	remap []int32
	buf   []byte
	row   int
	// long is set by a buffer that would outgrow the row table's int32
	// positions: done then returns no base.
	long bool
}

func newBaseCopy(c exec.Columns, old *base, from, lens []int32) *baseCopy {
	bc := &baseCopy{old: old, from: from, lens: lens, next: &base{cols: c, bufs: [][]byte{nil}, at: make([]rowAt, len(c.Measure))}}
	if from != nil {
		bc.remap = make([]int32, len(old.bufs))
	}
	return bc
}

// sent takes the rows of the next chunk.
func (bc *baseCopy) sent(rows []byte) {
	for pos := 0; pos < len(rows); bc.row++ {
		i := bc.row
		obj := rows[pos : pos+int(bc.lens[i])]
		pos += len(obj)
		if i > 0 {
			obj = obj[1:] // the comma before the row
		}
		if bc.from != nil && bc.from[i] >= 0 {
			at := bc.old.at[bc.from[i]]
			if bc.remap[at.buf] == 0 {
				bc.remap[at.buf] = int32(len(bc.next.bufs))
				bc.next.bufs = append(bc.next.bufs, bc.old.bufs[at.buf])
			}
			at.buf = bc.remap[at.buf]
			bc.next.at[i] = at
			continue
		}
		if len(bc.buf)+len(obj) >= math.MaxInt32 {
			bc.long = true
			continue
		}
		if len(bc.buf) > 0 {
			bc.buf = append(bc.buf, ',')
		}
		lo := int32(len(bc.buf))
		bc.buf = append(bc.buf, obj...)
		bc.next.at[i] = rowAt{0, lo, int32(len(bc.buf))}
	}
}

// done returns the base, once every row was sent, or nil. When its buffers hold
// more than half again the bytes of its rows — most rows it shares with
// the old base's buffers were replaced — its rows are moved into one
// buffer of their own; else a new buffer with a sixteenth of its length
// spare, as a first base's may have, is moved into one of its length.
func (bc *baseCopy) done() *base {
	b := bc.next
	if cap(bc.buf)-len(bc.buf) > len(bc.buf)/16 {
		bc.buf = append(make([]byte, 0, len(bc.buf)), bc.buf...)
	}
	b.bufs[0] = bc.buf
	var rows, held int64
	for _, at := range b.at {
		rows += int64(at.hi-at.lo) + 1
	}
	for _, buf := range b.bufs {
		held += int64(len(buf))
	}
	if bc.long || rows >= math.MaxInt32 {
		return nil
	}
	if 2*held > 3*rows {
		one := make([]byte, 0, rows)
		for i, at := range b.at {
			if i > 0 {
				one = append(one, ',')
			}
			lo := int32(len(one))
			one = append(one, b.bufs[at.buf][at.lo:at.hi]...)
			b.at[i] = rowAt{0, lo, int32(len(one))}
		}
		b.bufs = [][]byte{one}
	}
	return b
}

// labelTails is how a row ends for each label code, `,"label":"…"}`: a
// body escapes each label once, as it does member names, and its workers
// share the tails read-only. An unlabelled result has one, NullLabel's.
func labelTails(l *labeling.Column) [][]byte {
	names := []string{labeling.NullLabel}
	if l != nil {
		names = l.Names
	}
	tails := make([][]byte, len(names))
	for k, name := range names {
		tails[k] = append(appendString([]byte(`,"label":`), name), '}')
	}
	return tails
}

// assessRows appends cells [lo, hi) of an /assess result:
// {"coordinate":[…],"measure":…,"benchmark":…,"comparison":…,"label":…},
// the label's tail from tails. lens, when not nil, receives each row's
// length.
func (e *encoder) assessRows(c exec.Columns, tails [][]byte, lens []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		start := len(e.buf)
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"coordinate":[`...)
		for p, col := range c.Keys {
			if p > 0 {
				e.buf = append(e.buf, ',')
			}
			e.member(p, col[i])
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
		if c.Labels != nil {
			e.buf = append(e.buf, tails[c.Labels.Codes[i]]...)
		} else {
			e.buf = append(e.buf, tails[0]...)
		}
		if lens != nil {
			lens[i] = int32(len(e.buf) - start)
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

// queryBody is the rows of a /query result of n cells with the key
// columns keys.
func queryBody(fields []queryField, dicts []*mdm.Dict, keys [][]int32, n int) body {
	return body{n: n, dicts: dicts, rows: func(e *encoder, lo, hi int) { e.queryRows(fields, keys, lo, hi) }}
}

// queryRows appends cells [lo, hi) of a /query result, one object per
// cell keyed by level and measure name.
func (e *encoder) queryRows(fields []queryField, keys [][]int32, lo, hi int) {
	for i := lo; i < hi; i++ {
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
				e.member(f.pos, keys[f.pos][i])
			} else {
				e.buf = appendFloat(e.buf, f.col[i])
			}
		}
		e.buf = append(e.buf, '}')
	}
}
