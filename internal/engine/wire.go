package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
)

// The row codec is what a result set would cost on a DBMS cursor: each
// cell encoded row by row (coordinate member ids as int32, measure values
// as IEEE-754 bits), RowBytes per cell, and decoded into a fresh cube.
// Engine.Push counts that volume for every pushed result, the paper's
// measure of what a plan moves, but hands the result over by reference.
// The codec itself serves two users: the ADP1 frame of the HTTP shard hop
// (internal/dist), and internal/experiments, whose engine wrapper moves
// every pushed result through it so that Figure 3 measures the cursor the
// paper's prototype paid for.

// RowBytes is the length of one cell in the row codec, 4·|G| + 8·|M|:
// levels member ids and measures values.
func RowBytes(levels, measures int) int { return 4*levels + 8*measures }

// AppendRows appends the wire form of every cell of c to buf. It is the
// one row codec: the HTTP shard RPC of internal/dist frames the same
// bytes behind its own header.
func AppendRows(buf []byte, c *cube.Cube) []byte {
	buf = slices.Grow(buf, RowBytes(len(c.Group), len(c.Cols))*c.Len())
	for i := range c.Len() {
		for _, col := range c.Keys {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(col[i]))
		}
		for _, col := range c.Cols {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(col[i]))
		}
	}
	return buf
}

// DecodeRows materializes a client cube from the wire bytes: every cell
// is copied out of the cursor, into one slice per key position and per
// measure. What it allocates is bounded by len(buf). A row of no bytes
// cannot be counted, so bytes for zero levels and zero measures decode to
// no cells.
func DecodeRows(s *mdm.Schema, g mdm.GroupBy, names []string, buf []byte) (*cube.Cube, error) {
	rowLen := RowBytes(len(g), len(names))
	if rowLen == 0 {
		return cube.New(s, g, names...), nil
	}
	if len(buf)%rowLen != 0 {
		return nil, fmt.Errorf("engine: corrupt result set: %d bytes for row length %d", len(buf), rowLen)
	}
	n := len(buf) / rowLen
	keys := make([][]int32, len(g))
	for p := range keys {
		keys[p] = make([]int32, n)
	}
	cols := make([][]float64, len(names))
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	for r := range n {
		row := buf[r*rowLen:]
		for p, col := range keys {
			col[r] = int32(binary.LittleEndian.Uint32(row[4*p:]))
		}
		row = row[4*len(g):]
		for j, col := range cols {
			col[r] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
		}
	}
	return cube.Build(s, g, names, n, keys, cols)
}
