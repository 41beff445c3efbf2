package cube

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/testutil"
)

// BenchmarkResultAssemble times the trip of a large Constant's result
// from the engine's accumulators to the encoder's columns — dense
// finalize, cursor transfer, transform, label sort, final sort — through
// Build against the reference's cell-at-a-time AddCell, on a cube shaped
// like the customer × year Constant of the benchmark's cold_resident
// workload. speedup is reference time over Build time for the same
// cells; allocs/op counts the Build side only and does not grow with the
// cell count.
func BenchmarkResultAssemble(b *testing.B) {
	for _, n := range []int{100, 42000} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			s, g := assembleSchema((n + 6) / 7)
			space := s.KeySpace(g)
			revenue := make([]float64, n) // the accumulator array, one slot per cell
			for slot := range revenue {
				revenue[slot] = float64(1000 + slot*37%9973)
			}
			labels := make([]string, n)
			for i := range labels {
				labels[i] = [3]string{"behind", "onTarget", "ahead"}[i%3]
			}
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				assembledRef = assembleReference(s, g, space, revenue, labels)
			}
			refTime := time.Since(t0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assembled = assembleColumns(b, s, g, space, revenue, labels)
			}
			b.ReportMetric(float64(refTime)/float64(b.Elapsed()), "speedup")
		})
	}
}

// assembleSchema is customer × year: 7 years and the given number of
// customers, named so that name order differs from id order.
func assembleSchema(customers int) (*mdm.Schema, mdm.GroupBy) {
	hc := mdm.NewHierarchy("Customer", "customer")
	for i := 0; i < customers; i++ {
		hc.MustAddMember(fmt.Sprintf("Customer#%09d", (i*7919)%customers))
	}
	hy := mdm.NewHierarchy("Date", "year")
	for y := 1998; y > 1991; y-- {
		hy.MustAddMember(fmt.Sprint(y))
	}
	s := mdm.NewSchema("LINEORDER", []*mdm.Hierarchy{hc, hy}, []mdm.Measure{{Name: "revenue", Op: mdm.AggSum}})
	return s, mdm.MustGroupBy(s, "customer", "year")
}

// The benchmark's results, kept reachable so neither trip is optimized
// away.
var (
	assembled    *Cube
	assembledRef *refCube
)

func assembleColumns(b testing.TB, s *mdm.Schema, g mdm.GroupBy, space *mdm.KeySpace, revenue []float64, labels []string) *Cube {
	n, width := len(revenue), len(g)
	// Dense finalize: decode every occupied slot into the key columns,
	// copy its accumulator.
	keys := make([][]int32, width)
	for p := range keys {
		keys[p] = make([]int32, n)
		for slot := range keys[p] {
			keys[p][slot] = space.Member(uint64(slot), p)
		}
	}
	col := make([]float64, n)
	copy(col, revenue)
	engineSide, err := Build(s, g, []string{"revenue"}, n, keys, [][]float64{col})
	if err != nil {
		b.Fatal(err)
	}
	// Cursor transfer: rows of member ids and float bits, decoded into
	// columns on the client side.
	rowLen := 4*width + 8
	buf := make([]byte, 0, rowLen*n)
	for i := range n {
		for _, col := range engineSide.Keys {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(col[i]))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(engineSide.Cols[0][i]))
	}
	ids := make([][]int32, width)
	for k := range ids {
		ids[k] = make([]int32, n)
	}
	vals := make([]float64, n)
	for r, p := 0, 0; r < n; r++ {
		for k := range ids {
			ids[k][r] = int32(binary.LittleEndian.Uint32(buf[p:]))
			p += 4
		}
		vals[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
	}
	c, err := Build(s, g, []string{"revenue"}, n, ids, [][]float64{vals})
	if err != nil {
		b.Fatal(err)
	}
	// Transform, label (which sorts first), final sort.
	ratio := make([]float64, n)
	for i, v := range c.Cols[0] {
		ratio[i] = v / 5000
	}
	if err := c.AppendMeasure("ratio", ratio); err != nil {
		b.Fatal(err)
	}
	c.SortByCoordinate()
	if err := c.SetLabels(testutil.LabelColumn(labels...)); err != nil {
		b.Fatal(err)
	}
	c.SortByCoordinate()
	return c
}

// assembleReference is the same trip as the code it replaced made it:
// a coordinate, a value slice and an index entry per cell on either side
// of the cursor, and sorts that compare names and re-index.
func assembleReference(s *mdm.Schema, g mdm.GroupBy, space *mdm.KeySpace, revenue []float64, labels []string) *refCube {
	n, width := len(revenue), len(g)
	engineSide := refNew(s, g, "revenue")
	for slot := range revenue {
		coord := make(mdm.Coordinate, width)
		for p := range coord {
			coord[p] = space.Member(uint64(slot), p)
		}
		engineSide.AddCell(coord, []float64{revenue[slot]})
	}
	rowLen := 4*width + 8
	buf := make([]byte, 0, rowLen*n)
	for i, coord := range engineSide.Coords {
		for _, id := range coord {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(engineSide.Cols[0][i]))
	}
	c := refNew(s, g, "revenue")
	for r, p := 0, 0; r < n; r++ {
		coord := make(mdm.Coordinate, width)
		for k := range coord {
			coord[k] = int32(binary.LittleEndian.Uint32(buf[p:]))
			p += 4
		}
		vals := []float64{math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))}
		p += 8
		c.AddCell(coord, vals)
	}
	ratio := make([]float64, n)
	for i, v := range c.Cols[0] {
		ratio[i] = v / 5000
	}
	c.Names = append(c.Names, "ratio")
	c.Cols = append(c.Cols, ratio)
	c.SortByCoordinate()
	c.Labels = labels
	c.SortByCoordinate()
	return c
}

// TestAssembleAgrees keeps the benchmark honest: both trips end in the
// same cube.
func TestAssembleAgrees(t *testing.T) {
	s, g := assembleSchema(30)
	space := s.KeySpace(g)
	revenue := make([]float64, 210)
	for slot := range revenue {
		revenue[slot] = float64(slot * 13 % 101)
	}
	labels := make([]string, len(revenue))
	for i := range labels {
		labels[i] = fmt.Sprint("label", i%4)
	}
	same(t, "assemble", assembleColumns(t, s, g, space, revenue, labels), nil, assembleReference(s, g, space, revenue, labels), nil)
}
