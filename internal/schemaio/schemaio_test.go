package schemaio

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// v1Schema is the body of the schema.bin of colstore's version 1 store
// fixture, past its 10-byte magic.
func v1Schema(tb testing.TB) []byte {
	data, err := os.ReadFile("../colstore/testdata/v1store/schema.bin")
	if err != nil {
		tb.Fatal(err)
	}
	return data[len("ASSESSSCH\x01"):]
}

func encode(tb testing.TB, s *mdm.Schema) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	ds := sales.Generate(200, 1)
	for name, data := range map[string][]byte{
		"sales":      encode(t, ds.Schema),
		"v1 fixture": v1Schema(t),
	} {
		s, err := Read(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back := encode(t, s); !bytes.Equal(back, data) {
			t.Errorf("%s: %d bytes re-encode to %d different bytes", name, len(data), len(back))
		}
		if _, err := Read(append(data[:len(data):len(data)], 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
		for _, n := range []int{0, 3, len(data) / 2, len(data) - 1} {
			if _, err := Read(data[:n]); err == nil {
				t.Errorf("%s: %d-byte prefix accepted", name, n)
			}
		}
	}
}

// FuzzSchemaRead feeds arbitrary bytes to the schema decoder. The
// property: the bytes either fail with an error or decode to a schema
// that encodes back to exactly them; never a panic, and never more
// memory than 128 bytes per input byte plus 256 KiB — every count and
// length must be checked against the bytes left before it sizes
// anything. Seeded from the version 1 store fixture and the sales schema.
func FuzzSchemaRead(f *testing.F) {
	f.Add(v1Schema(f))
	// f.Add(encode(f, sales.Generate(50, 1).Schema))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Read(data)
		runtime.ReadMemStats(&after)
		// A member costs a dictionary entry, a parent link and its map
		// slot for the 4-byte length prefix that names it; a hierarchy
		// costs its level-map table (levels² pointers) for its header.
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+256<<10); grew > most {
			t.Fatalf("decoding %d bytes allocated %d, want ≤ %d", len(data), grew, most)
		}
		if err != nil {
			return
		}
		if back := encode(t, s); !bytes.Equal(back, data) {
			t.Fatalf("%d bytes decoded and encode back to %d different bytes", len(data), len(back))
		}
	})
}
