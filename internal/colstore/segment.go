// Segment files: the immutable on-disk unit of the store. A segment is
// a column-major encoding of a run of fact rows in append order:
//
//	"ASSESSSEG\x02"                          magic (format version 2)
//	key column payloads, measure column payloads
//	postings sections, one per indexed key column (see postings.go)
//	footer:
//	  u32 rows, u8 nkeys, u8 nmeas
//	  per key column:
//	    u8 enc, u8 width, u64 base, u64 off, u64 len, u32 crc,
//	    u8 nlevels, nlevels × (u32 min, u32 max)   ← zone maps
//	  per measure column:
//	    u8 enc, u8 width, u64 base, u64 off, u64 len, u32 crc
//	  per key column (version 2 only):
//	    u8 kind, u8 width, u32 ncodes, u64 off, u64 len, u32 crc   ← postings
//	u32 footerLen, "ASG1"                    trailer
//
// Version 1 files ("ASSESSSEG\x01") end their footer after the measure
// columns and carry no postings; they stay readable and predicates on
// them sweep the packed codes. Every segment written now is version 2.
//
// The zone maps record the min/max rolled-up dictionary code of the
// segment's rows at every level of every hierarchy, so a predicate at
// any level can prove a segment irrelevant without decoding it. The
// postings list the row ids of each base-level code, so a predicate
// finds its rows without reading the column. Section CRCs (Castagnoli)
// are verified on every decode; everything the footer says about a
// section is checked against the file before any of it is trusted.
package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

var (
	segMagicV1 = []byte("ASSESSSEG\x01")
	segMagic   = []byte("ASSESSSEG\x02")
	segTrail   = []byte("ASG1")
	castTable  = crc32.MakeTable(crc32.Castagnoli)
)

// zoneMap is the [min, max] rolled-up code range of one level.
type zoneMap struct{ lo, hi int32 }

// keyMeta describes one encoded key column.
type keyMeta struct {
	enc, width uint8
	base       uint64
	off, size  int64
	crc        uint32
	zones      []zoneMap // one per level, base level first
}

// measMeta describes one encoded measure column.
type measMeta struct {
	enc, width uint8
	base       uint64
	off, size  int64
	crc        uint32
}

// footer is the parsed segment footer, kept resident per open segment.
type footer struct {
	rows int
	keys []keyMeta
	meas []measMeta
	post []postMeta // per key column; nil for a version 1 segment
}

// segWriter appends sections to a segment file under construction,
// keeping the running offset each footer entry records. A write error
// sticks in the bufio.Writer and surfaces when CommitFile flushes it.
type segWriter struct {
	w   *bufio.Writer
	off int64
}

func (w *segWriter) put(p []byte) (off, size int64, crc uint32) {
	off, size = w.off, int64(len(p))
	w.w.Write(p)
	w.off += size
	return off, size, crc32.Checksum(p, castTable)
}

// levelMaps returns, per hierarchy and per level d, mdm's base→d level map
// as it stands now. The tables are immutable, so a writer on another
// goroutine may keep reading them while Hierarchy.AddMember runs; they
// cover every base member registered before the call.
func levelMaps(hiers []*mdm.Hierarchy) [][][]int32 {
	maps := make([][][]int32, len(hiers))
	for h, hier := range hiers {
		maps[h] = make([][]int32, hier.Depth())
		for d := range maps[h] {
			maps[h][d] = hier.LevelMap(0, d)
		}
	}
	return maps
}

// writeSegment encodes rows [0, rows) of the given columns into path
// (through CommitFile) and returns the parsed footer. ruMaps are the
// hierarchies' levelMaps, taken no earlier than the rows were accepted:
// every code a row carries has its entry. The live hierarchies are not
// read here — folds and merges run on the store's own goroutine.
func writeSegment(path string, keys [][]int32, meas [][]float64, rows int, ruMaps [][][]int32) (*footer, error) {
	foot := &footer{
		rows: rows,
		keys: make([]keyMeta, len(keys)),
		meas: make([]measMeta, len(meas)),
		post: make([]postMeta, len(keys)),
	}
	err := CommitFile(path, func(bw *bufio.Writer) error {
		w := segWriter{w: bw}
		w.put(segMagic)
		for h, col := range keys {
			col = col[:rows]
			enc, width, base, payload := encodeKeys(col)
			km := &foot.keys[h]
			km.enc, km.width, km.base = enc, width, base
			km.off, km.size, km.crc = w.put(payload)
			km.zones = make([]zoneMap, len(ruMaps[h]))
			for d, m := range ruMaps[h] {
				z := zoneMap{lo: m[col[0]], hi: m[col[0]]}
				for _, c := range col {
					rc := m[c]
					if rc < z.lo {
						z.lo = rc
					}
					if rc > z.hi {
						z.hi = rc
					}
				}
				km.zones[d] = z
			}
		}
		for m, col := range meas {
			enc, width, base, payload := encodeMeas(col[:rows])
			mm := &foot.meas[m]
			mm.enc, mm.width, mm.base = enc, width, base
			mm.off, mm.size, mm.crc = w.put(payload)
		}
		for h, col := range keys {
			if foot.keys[h].enc != kencPacked {
				continue // const columns settle in O(1); raw ones have no code range to index
			}
			pm, payload := buildPostings(col[:rows], int32(uint32(foot.keys[h].base)))
			pm.off, pm.size, pm.crc = w.put(payload)
			foot.post[h] = pm
		}
		_, err := bw.Write(appendFooter(nil, foot))
		return err
	})
	if err != nil {
		return nil, err
	}
	mSegsWritten.Inc()
	return foot, nil
}

// appendFooter renders foot and the trailer onto buf. A footer without
// postings entries (post == nil) renders in the version 1 layout.
func appendFooter(buf []byte, foot *footer) []byte {
	start := len(buf)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(uint32(foot.rows))
	buf = append(buf, uint8(len(foot.keys)), uint8(len(foot.meas)))
	for _, km := range foot.keys {
		buf = append(buf, km.enc, km.width)
		u64(km.base)
		u64(uint64(km.off))
		u64(uint64(km.size))
		u32(km.crc)
		buf = append(buf, uint8(len(km.zones)))
		for _, z := range km.zones {
			u32(uint32(z.lo))
			u32(uint32(z.hi))
		}
	}
	for _, mm := range foot.meas {
		buf = append(buf, mm.enc, mm.width)
		u64(mm.base)
		u64(uint64(mm.off))
		u64(uint64(mm.size))
		u32(mm.crc)
	}
	for _, pm := range foot.post {
		buf = append(buf, pm.kind, pm.width)
		u32(uint32(pm.ncodes))
		u64(uint64(pm.off))
		u64(uint64(pm.size))
		u32(pm.crc)
	}
	u32(uint32(len(buf) - start + 8)) // footerLen counts itself and the trailer
	return append(buf, segTrail...)
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("colstore: corrupt segment: "+format, args...)
}

// parseFooter parses and validates a footer body (the footer without
// its 8-byte trailer). version is the file's format version and bodyEnd
// the file offset where the sections end and the footer begins: every
// section must lie in [len(magic), bodyEnd) and have exactly the length
// its encoding, width and the row count imply, so no later decode can
// read outside its payload or size a buffer the file does not justify.
func parseFooter(buf []byte, version int, bodyEnd int64) (*footer, error) {
	pos := 0
	need := func(n int) error {
		if pos+n > len(buf) {
			return corruptf("truncated footer")
		}
		return nil
	}
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(buf[pos:]); pos += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(buf[pos:]); pos += 8; return v }
	u8 := func() uint8 { v := buf[pos]; pos++; return v }
	// inside checks a section against the file and its expected length.
	inside := func(off, size, want int64) error {
		if size != want || off < int64(len(segMagic)) || off > bodyEnd || size > bodyEnd-off {
			return corruptf("section [%d, +%d) does not fit (want %d bytes below %d)", off, size, want, bodyEnd)
		}
		return nil
	}
	if err := need(6); err != nil {
		return nil, err
	}
	foot := &footer{rows: int(u32())}
	if foot.rows < 1 {
		return nil, corruptf("no rows")
	}
	nk, nm := int(u8()), int(u8())
	foot.keys = make([]keyMeta, nk)
	foot.meas = make([]measMeta, nm)
	for h := range foot.keys {
		if err := need(35); err != nil {
			return nil, err
		}
		km := &foot.keys[h]
		km.enc, km.width = u8(), u8()
		km.base = u64()
		km.off, km.size = int64(u64()), int64(u64())
		km.crc = u32()
		var want int64
		switch km.enc {
		case kencConst:
		case kencPacked:
			if km.width < 1 || km.width > 32 {
				return nil, corruptf("key column %d packed at %d bits", h, km.width)
			}
			want = int64(packedLen(foot.rows, uint(km.width)))
		case kencRaw:
			want = 4 * int64(foot.rows)
		default:
			return nil, corruptf("key column %d has unknown encoding %d", h, km.enc)
		}
		if err := inside(km.off, km.size, want); err != nil {
			return nil, err
		}
		nz := int(u8())
		if err := need(8 * nz); err != nil {
			return nil, err
		}
		km.zones = make([]zoneMap, nz)
		for d := range km.zones {
			km.zones[d] = zoneMap{lo: int32(u32()), hi: int32(u32())}
		}
	}
	for m := range foot.meas {
		if err := need(30); err != nil {
			return nil, err
		}
		mm := &foot.meas[m]
		mm.enc, mm.width = u8(), u8()
		mm.base = u64()
		mm.off, mm.size = int64(u64()), int64(u64())
		mm.crc = u32()
		var want int64
		switch mm.enc {
		case mencConst:
		case mencRaw:
			want = 8 * int64(foot.rows)
		case mencFOR, mencDelta:
			// The delta decoder divides by the width; the writer never
			// emits a zero-width delta (all-equal values are const).
			if mm.width > maxPackWidth || mm.enc == mencDelta && mm.width == 0 {
				return nil, corruptf("measure column %d packed at %d bits", m, mm.width)
			}
			want = int64(packedLen(foot.rows, uint(mm.width)))
		default:
			return nil, corruptf("measure column %d has unknown encoding %d", m, mm.enc)
		}
		if err := inside(mm.off, mm.size, want); err != nil {
			return nil, err
		}
	}
	if version < 2 {
		return foot, nil
	}
	foot.post = make([]postMeta, nk)
	for h := range foot.post {
		if err := need(26); err != nil {
			return nil, err
		}
		pm := &foot.post[h]
		pm.kind, pm.width = u8(), u8()
		pm.ncodes = int(u32())
		pm.off, pm.size = int64(u64()), int64(u64())
		pm.crc = u32()
		if pm.kind == postNone {
			continue // the rest of the entry is unused
		}
		want, err := pm.check(foot.rows, &foot.keys[h])
		if err != nil {
			return nil, fmt.Errorf("%w (key column %d)", err, h)
		}
		if err := inside(pm.off, pm.size, want); err != nil {
			return nil, err
		}
	}
	return foot, nil
}

// prunedBy reports whether the zone maps prove that no row of the
// segment can satisfy every predicate: some predicate's accepted member
// set misses the segment's [min, max] code range at that level.
func (foot *footer) prunedBy(preds []storage.LevelPred) bool {
	for _, p := range preds {
		if p.Hier >= len(foot.keys) || p.Level >= len(foot.keys[p.Hier].zones) {
			continue
		}
		z := foot.keys[p.Hier].zones[p.Level]
		hit := false
		for _, w := range p.Members {
			if w >= z.lo && w <= z.hi {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
	}
	return false
}

// decodeInto decodes the segment's needed columns into sc and returns
// the block. When plan is non-nil the segment is late-materialized:
// predicates are evaluated before any needed column is touched — a
// const-encoded predicated key resolves the segment in O(1), the others
// build a selection bitmap (selectRows: from postings where the segment
// has them), an empty bitmap skips the segment (ok=false, like a
// zone-map prune), and selections at or below gatherCutoff×rows
// gather-decode the needed key and measure columns (selected rows
// only). Key columns marked predicate-only (storage.ColSet.PredOnly)
// are omitted from the block whenever a bitmap is produced. Section
// CRCs are verified once per open segment for stable (mmap) blobs,
// every fetch for pread; counts decode metrics.
func (s *segment) decodeInto(need storage.ColSet, plan *scanPlan, gatherCutoff float64, sc *storage.BlockScratch) (storage.BlockCols, bool, error) {
	foot := s.foot
	cols := storage.BlockCols{
		Keys: make([][]int32, len(foot.keys)),
		Meas: make([][]float64, len(foot.meas)),
		Rows: foot.rows,
	}
	var readBytes int64
	if plan != nil && len(plan.filtered) > 0 {
		n, err := s.selectRows(plan, need, &cols, sc)
		if err != nil {
			return cols, false, err
		}
		readBytes += n
		if cols.SelCount == 0 {
			mLazySkipped.Inc()
			return cols, false, nil
		}
	}
	gather := cols.Sel != nil && float64(cols.SelCount) <= gatherCutoff*float64(foot.rows)
	for h := range foot.keys {
		if cols.Keys[h] != nil || !need.NeedKey(h) {
			continue
		}
		if cols.Sel != nil && need.PredOnlyKey(h) {
			// The bitmap already accounts for this predicate and no
			// consumer reads the column itself (ColSet.PredOnly).
			continue
		}
		km := &foot.keys[h]
		payload, err := s.keyPayload(h, sc)
		if err != nil {
			return cols, false, err
		}
		dst := sc.KeyBuf(h, len(foot.keys), foot.rows)
		if gather && gatherKeys(dst, km.enc, km.width, km.base, payload, cols.Sel) {
			mLazyGathered.Inc()
		} else {
			decodeKeys(dst, km.enc, km.width, km.base, payload)
		}
		cols.Keys[h] = dst
		readBytes += km.size
	}
	for m := range foot.meas {
		if !need.NeedMeas(m) {
			continue
		}
		mm := &foot.meas[m]
		payload, err := s.measPayload(m, sc)
		if err != nil {
			return cols, false, err
		}
		dst := sc.MeasBuf(m, len(foot.meas), foot.rows)
		if gather && gatherMeas(dst, mm.enc, mm.width, mm.base, payload, cols.Sel) {
			mLazyGathered.Inc()
		} else {
			decodeMeas(dst, mm.enc, mm.width, mm.base, payload)
		}
		cols.Meas[m] = dst
		readBytes += mm.size
	}
	mDecoded.Inc()
	hDecodeBytes.Observe(float64(readBytes))
	return cols, true, nil
}
