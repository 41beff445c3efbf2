package dist

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// FuzzDecodeResponse feeds arbitrary bytes to the ADP1 decoder. The
// property: a frame either fails with an error or decodes to a cube that
// encodes back to exactly the frame; never a panic, and never more
// memory than a small multiple of the frame's own length — the header's
// row count must be checked against the body before it sizes anything.
// Seeded from frames EncodeResponse produced: several cells, none, and
// the empty shape with and without its one cell.
func FuzzDecodeResponse(f *testing.F) {
	ds := sales.Generate(10, 1)
	g := mdm.GroupBy{{Hier: 2, Level: 1}, {Hier: 3, Level: 0}}
	names := []string{"p0", "p1"}
	c := cube.New(ds.Schema, g, names...)
	f.Add(EncodeResponse(0, c), true)
	c.MustAddCell(mdm.Coordinate{1, 2}, 3.5, -0)
	c.MustAddCell(mdm.Coordinate{0, 7}, 1e-300, 42)
	f.Add(EncodeResponse(99, c), true)
	none := cube.New(ds.Schema, nil)
	f.Add(EncodeResponse(7, none), false)
	none.MustAddCell(mdm.Coordinate{})
	f.Add(EncodeResponse(7, none), false)

	f.Fuzz(func(t *testing.T, data []byte, shaped bool) {
		var fg mdm.GroupBy
		var fnames []string
		if shaped {
			fg, fnames = g, names
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gen, got, err := DecodeResponse(ds.Schema, fg, fnames, data)
		runtime.ReadMemStats(&after)
		// Decoded ids and values take the bytes they took on the wire; a
		// coordinate header per row and the error text are the rest.
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+16<<10); grew > most {
			t.Fatalf("decoding %d bytes allocated %d, want ≤ %d", len(data), grew, most)
		}
		if err != nil {
			return
		}
		if back := EncodeResponse(gen, got); !bytes.Equal(back, data) {
			t.Fatalf("frame of %d bytes decoded to %d cells and encodes back to %d different bytes", len(data), got.Len(), len(back))
		}
	})
}
