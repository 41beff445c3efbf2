package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
)

// The wire format models the DBMS cursor boundary: a result set crossing
// from the engine to the client is encoded row by row (coordinate member
// ids as int32, measure values as IEEE-754 bits) and decoded into a fresh
// client-side cube. The byte cost is 4·|G| + 8·|M| per cell, which makes
// the transfer volume of a plan a genuine, measurable cost rather than a
// simulated delay.

// encodeRows serializes all cells of a cube.
func encodeRows(c *cube.Cube) []byte {
	rowLen := 4*len(c.Group) + 8*len(c.Cols)
	buf := make([]byte, 0, rowLen*c.Len())
	var scratch [8]byte
	for i, coord := range c.Coords {
		for _, id := range coord {
			binary.LittleEndian.PutUint32(scratch[:4], uint32(id))
			buf = append(buf, scratch[:4]...)
		}
		for j := range c.Cols {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(c.Cols[j][i]))
			buf = append(buf, scratch[:]...)
		}
	}
	return buf
}

// decodeRows materializes a client cube from the wire bytes: every cell
// is copied out of the cursor, into one coordinate arena and one slice
// per measure.
func decodeRows(s *mdm.Schema, g mdm.GroupBy, names []string, buf []byte) (*cube.Cube, error) {
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
	buf := encodeRows(c)
	mTransferBytes.Add(int64(len(buf)))
	mTransferCells.Add(int64(c.Len()))
	return decodeRows(c.Schema, c.Group, c.Names, buf)
}
