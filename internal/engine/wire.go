package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
)

// The wire format models the DBMS cursor boundary: a result set crossing
// from the engine to the client is encoded row by row (coordinate member
// ids as int32, measure values as IEEE-754 bits) and decoded into a fresh
// client-side cube. The byte cost is 4·|G| + 8·|M| per cell, which makes
// the transfer volume of a plan a genuine, measurable cost rather than a
// simulated delay.

// AppendRows appends the wire form of every cell of c to buf. It is the
// one row codec: the shard RPC of internal/dist frames the same bytes
// behind its own header.
func AppendRows(buf []byte, c *cube.Cube) []byte {
	buf = slices.Grow(buf, (4*len(c.Group)+8*len(c.Cols))*c.Len())
	for i, coord := range c.Coords {
		for _, id := range coord {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
		for j := range c.Cols {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Cols[j][i]))
		}
	}
	return buf
}

// DecodeRows materializes a client cube from the wire bytes: every cell
// is copied out of the cursor, into one coordinate arena and one slice
// per measure. What it allocates is bounded by len(buf).
func DecodeRows(s *mdm.Schema, g mdm.GroupBy, names []string, buf []byte) (*cube.Cube, error) {
	rowLen := 4*len(g) + 8*len(names)
	if rowLen == 0 {
		return cube.New(s, g, names...), nil
	}
	if len(buf)%rowLen != 0 {
		return nil, fmt.Errorf("engine: corrupt result set: %d bytes for row length %d", len(buf), rowLen)
	}
	n := len(buf) / rowLen
	ids := make([]int32, n*len(g))
	cols := make([][]float64, len(names))
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	p := 0
	for r := 0; r < n; r++ {
		for i := range g {
			ids[r*len(g)+i] = int32(binary.LittleEndian.Uint32(buf[p:]))
			p += 4
		}
		for j := range cols {
			cols[j][r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
			p += 8
		}
	}
	return cube.Build(s, g, names, cube.Carve(ids, n, len(g)), cols)
}

// transfer moves an engine-side result set across the cursor boundary.
func transfer(c *cube.Cube) (*cube.Cube, error) {
	buf := AppendRows(nil, c)
	mTransferBytes.Add(int64(len(buf)))
	mTransferCells.Add(int64(c.Len()))
	return DecodeRows(c.Schema, c.Group, c.Names, buf)
}
