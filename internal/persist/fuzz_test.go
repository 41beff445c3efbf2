package persist

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"

	"github.com/assess-olap/assess/internal/labeling"
)

func encodeLabelersBytes(labelers []*labeling.Ranges) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	encodeLabelers(w, labelers)
	w.Flush()
	return buf.Bytes()
}

// FuzzLoadLabelers feeds arbitrary bytes to the labeler sidecar decoder
// behind LoadLabelers. The property: the bytes either fail with an error
// or decode to labelers that encode back to exactly them; never a panic,
// and never more memory than 16 bytes per input byte plus 16 KiB — the
// labeler and interval counts must be checked against the bytes left
// before they size anything. Seeded from SaveLabelers' output.
func FuzzLoadLabelers(f *testing.F) {
	dir := f.TempDir()
	if err := SaveLabelers(dir, []*labeling.Ranges{
		labeling.FiveStars(),
		labeling.MustRanges("passfail", []labeling.Interval{
			{Lo: labeling.Inf(-1), Hi: 0, HiOpen: true, Label: "fail"},
			{Lo: 0, Hi: labeling.Inf(1), Label: "pass"},
		}),
	}); err != nil {
		f.Fatal(err)
	}
	saved, err := LoadLabelers(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeLabelersBytes(saved))
	f.Add(encodeLabelersBytes(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		labelers, err := decodeLabelers(data)
		runtime.ReadMemStats(&after)
		// An interval takes at least 21 bytes and decodes into two
		// copies (ours and NewRanges') of a 40-byte struct.
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+16<<10); grew > most {
			t.Fatalf("decoding %d bytes allocated %d, want ≤ %d", len(data), grew, most)
		}
		if err != nil {
			return
		}
		if back := encodeLabelersBytes(labelers); !bytes.Equal(back, data) {
			t.Fatalf("%d bytes decoded to %d labelers and encode back to %d different bytes", len(data), len(labelers), len(back))
		}
	})
}
