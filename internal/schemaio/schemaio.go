// Package schemaio is the binary codec for cube schemas — name,
// hierarchies with member dictionaries, part-of links, level-property
// tables, and measures with aggregation operators. internal/colstore
// stores it as the body of a cube directory's schema.bin.
//
// Layout (all integers little-endian, strings u32-length-prefixed):
//
//	name, hierarchy count
//	per hierarchy: name, levels, one full roll-up path per base member,
//	               per-level dictionaries, property tables
//	measure count, per measure: name, aggregation op
package schemaio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/assess-olap/assess/internal/mdm"
)

// Write serializes the schema. Callers should pass a buffered writer;
// Write issues many small writes.
func Write(w io.Writer, s *mdm.Schema) error {
	ew := &errWriter{w: w}
	ew.writeString(s.Name)
	ew.writeU32(uint32(len(s.Hiers)))
	for _, h := range s.Hiers {
		ew.writeString(h.Name())
		levels := h.Levels()
		ew.writeU32(uint32(len(levels)))
		for _, l := range levels {
			ew.writeString(l)
		}
		// Member paths: one full roll-up path per base member rebuilds
		// dictionaries and parent links on load.
		base := h.Dict(0)
		ew.writeU32(uint32(base.Len()))
		for id := int32(0); int(id) < base.Len(); id++ {
			for d := 0; d < len(levels); d++ {
				ew.writeString(h.Dict(d).Name(h.Rollup(id, 0, d)))
			}
		}
		// Non-base members unreachable from any base member would be lost;
		// write each level's dictionary for completeness.
		for d := 1; d < len(levels); d++ {
			dict := h.Dict(d)
			ew.writeU32(uint32(dict.Len()))
			for id := int32(0); int(id) < dict.Len(); id++ {
				ew.writeString(dict.Name(id))
			}
		}
		// Property tables.
		var props []struct {
			depth int
			name  string
		}
		for d := range levels {
			for _, name := range h.PropertyNames(d) {
				props = append(props, struct {
					depth int
					name  string
				}{d, name})
			}
		}
		ew.writeU32(uint32(len(props)))
		for _, p := range props {
			ew.writeU32(uint32(p.depth))
			ew.writeString(p.name)
			dict := h.Dict(p.depth)
			ew.writeU32(uint32(dict.Len()))
			for id := int32(0); int(id) < dict.Len(); id++ {
				ew.writeU64(math.Float64bits(h.PropertyValue(p.depth, p.name, id)))
			}
		}
	}
	ew.writeU32(uint32(len(s.Measures)))
	for _, m := range s.Measures {
		ew.writeString(m.Name)
		ew.writeU32(uint32(m.Op))
	}
	return ew.err
}

// Read deserializes a schema written by Write. It accepts exactly the
// bytes Write produces: every count and length is checked against the
// bytes left before anything is sized from it, members and properties
// must come in the order Write emits them, and no byte may trail, so a
// schema Read accepts encodes back to the same bytes.
func Read(data []byte) (*mdm.Schema, error) {
	r := &reader{b: data}
	name := r.str()
	nh := r.count(64, 20)
	hiers := make([]*mdm.Hierarchy, nh)
	for i := range hiers {
		h, err := readHierarchy(r)
		if err != nil {
			return nil, err
		}
		hiers[i] = h
	}
	nm := r.count(1024, 8)
	if r.err == nil && nm == 0 {
		r.fail("no measures")
	}
	measures := make([]mdm.Measure, nm)
	for i := range measures {
		measures[i].Name = r.str()
		if op := r.u32(); op > uint32(mdm.AggCount) {
			r.fail("unknown aggregation operator %d", op)
		} else {
			measures[i].Op = mdm.AggOp(op)
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return mdm.NewSchema(name, hiers, measures), nil
}

// readHierarchy decodes one hierarchy section.
func readHierarchy(r *reader) (*mdm.Hierarchy, error) {
	hname := r.str()
	nl := r.count(32, 4)
	if r.err == nil && nl == 0 {
		r.fail("hierarchy %q has no levels", hname)
	}
	levels := make([]string, nl)
	for d := range levels {
		levels[d] = r.str()
		if slices.Contains(levels[:d], levels[d]) {
			r.fail("hierarchy %q repeats level %q", hname, levels[d])
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	h := mdm.NewHierarchy(hname, levels...)
	// Each base member is one full path, 4 bytes per level at least.
	nbase := r.count(math.MaxInt32, 4*nl)
	path := make([]string, nl)
	for m := 0; m < nbase && r.err == nil; m++ {
		for d := range path {
			path[d] = r.str()
		}
		if r.err != nil {
			break
		}
		if id, err := h.AddMember(path...); err != nil {
			return nil, fmt.Errorf("schemaio: %w", err)
		} else if int(id) != m {
			r.fail("base member %q listed twice", path[0])
		}
	}
	// Per-level dictionaries in id order: the members the paths interned,
	// then any no base member reaches.
	for d := 1; d < nl; d++ {
		n := r.count(math.MaxInt32, 4)
		if r.err == nil && n < h.Dict(d).Len() {
			r.fail("level %q lists %d of its %d members", levels[d], n, h.Dict(d).Len())
		}
		for m := 0; m < n && r.err == nil; m++ {
			if member := r.str(); r.err == nil && h.Dict(d).Intern(member) != int32(m) {
				r.fail("level %q lists member %q out of order", levels[d], member)
			}
		}
	}
	// Property tables, by level and then by name.
	np := r.count(math.MaxInt32, 12)
	prevDepth, prevName := 0, ""
	for p := 0; p < np && r.err == nil; p++ {
		depth := int(r.u32())
		pname := r.str()
		if r.err != nil {
			break
		}
		if depth >= nl || depth < prevDepth || (p > 0 && depth == prevDepth && pname <= prevName) {
			r.fail("property %q at level depth %d out of order", pname, depth)
			break
		}
		prevDepth, prevName = depth, pname
		if err := h.AddProperty(levels[depth], pname); err != nil {
			return nil, err
		}
		dict := h.Dict(depth)
		if n := r.count(math.MaxInt32, 8); r.err == nil && n != dict.Len() {
			r.fail("property %q has %d values for %d members", pname, n, dict.Len())
		}
		for id := 0; id < dict.Len() && r.err == nil; id++ {
			bits := r.u64()
			v := math.Float64frombits(bits)
			if math.IsNaN(v) {
				if bits != unset {
					r.fail("property %q holds a NaN other than the unset mark", pname)
				}
				continue // NaN marks an unset property value
			}
			if err := h.SetProperty(levels[depth], dict.Name(int32(id)), pname, v); err != nil {
				return nil, err
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return h, nil
}

// unset is the bit pattern Write gives an unset property value.
var unset = math.Float64bits(math.NaN())

// reader decodes little-endian integers and strings from a byte slice,
// keeping the first error; after one, every read returns zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("schemaio: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.fail("truncated schema: want %d bytes, %d left", n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *reader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *reader) str() string { return string(r.take(int(r.u32()))) }

// count reads a count of at most max items, each of which takes at least
// size bytes, and rejects one the bytes left cannot hold.
func (r *reader) count(max, size int) int {
	n := int(r.u32())
	if r.err == nil && (n > max || n*size > len(r.b)) {
		r.fail("implausible count %d for %d bytes left", n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// errWriter performs unchecked writes and keeps the first error, the
// bufio idiom without requiring the caller's writer to be a *bufio.Writer.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) write(p []byte) {
	if ew.err != nil {
		return
	}
	_, ew.err = ew.w.Write(p)
}

func (ew *errWriter) writeU32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	ew.write(buf[:])
}

func (ew *errWriter) writeU64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	ew.write(buf[:])
}

func (ew *errWriter) writeString(s string) {
	ew.writeU32(uint32(len(s)))
	if ew.err == nil {
		_, ew.err = io.WriteString(ew.w, s)
	}
}
