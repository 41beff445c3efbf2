// Late materialization: predicate-first evaluation in code space.
// A scan's LevelPreds are planned once into (a) sorted member sets with
// min/max bounds for zone-map probes — a couple of comparisons and a
// binary search per segment instead of a linear member sweep — and (b)
// per-hierarchy acceptance over base-level codes: the vector the caller
// prepared (storage.LevelPred.Accept; the store derives none, so segment
// rows and the WAL tail the engine filters pass through the very same
// vector) and, from it, the sorted code list the postings are looked up
// with. selectRows evaluates them per segment before any needed column is
// touched, and never decodes a column to do so: a const-encoded
// predicated key settles the segment in O(1); the accepted codes'
// postings give every other predicate's exact match count and the
// smallest builds the selection bitmap in time proportional to its
// matches; the remaining predicates intersect by probing the packed codes
// of the rows still set. A segment without postings (format version 1,
// or a column the writer left unindexed) sweeps the first predicate's
// packed codes instead — the same kernel the tests use as the reference.
// An empty bitmap skips the segment; otherwise its rows become the
// block's index vector and every needed column is handed over compacted
// to them — sparse selections gather-decode only those rows, dense ones
// decode whole and compact in place.
package colstore

import (
	"math/bits"
	"sort"

	"github.com/assess-olap/assess/internal/storage"
)

// preparedPred is the prune-probe form of one LevelPred: members sorted,
// with the min/max precomputed. An empty member set accepts nothing and
// therefore prunes every segment.
type preparedPred struct {
	hier, level int
	members     []int32 // sorted ascending
	lo, hi      int32   // members[0], members[len-1]; lo > hi when empty
}

// scanPlan is the per-scan prepared predicate set: prune probes for the
// zone maps plus per-hierarchy base-code acceptance for row-level
// code-space filtering.
type scanPlan struct {
	preds   []preparedPred
	accepts [][]bool  // per hierarchy, the caller's vector; nil = no predicate on it
	codes   [][]int32 // accepts as sorted code lists, for postings lookups
	// filtered lists the hierarchies with non-nil accepts, so the block
	// path iterates predicated hierarchies only.
	filtered []int
}

// preparePreds builds the prune-probe forms alone.
func preparePreds(preds []storage.LevelPred) []preparedPred {
	if len(preds) == 0 {
		return nil
	}
	pps := make([]preparedPred, len(preds))
	for i, p := range preds {
		pp := preparedPred{hier: p.Hier, level: p.Level, lo: 1, hi: 0}
		pp.members = append([]int32(nil), p.Members...)
		sort.Slice(pp.members, func(a, b int) bool { return pp.members[a] < pp.members[b] })
		if len(pp.members) > 0 {
			pp.lo, pp.hi = pp.members[0], pp.members[len(pp.members)-1]
		}
		pps[i] = pp
	}
	return pps
}

// newPlan builds the scan plan over hiers hierarchies: prune probes plus
// row-level acceptance. The predicates come prepared by storage.Accepts; an
// unprepared one is the caller's bug and panics, since the selection bitmap
// promises the full predicate set. Returns nil when there is nothing to
// plan.
func newPlan(hiers int, preds []storage.LevelPred) *scanPlan {
	if len(preds) == 0 {
		return nil
	}
	plan := &scanPlan{
		preds:   preparePreds(preds),
		accepts: make([][]bool, hiers),
		codes:   make([][]int32, hiers),
	}
	for _, p := range preds {
		if p.Accept == nil {
			panic("colstore: scan predicate not prepared by storage.Accepts")
		}
		if p.Hier >= 0 && p.Hier < hiers {
			plan.accepts[p.Hier] = p.Accept
		}
	}
	for h, acc := range plan.accepts {
		if acc == nil {
			continue
		}
		plan.filtered = append(plan.filtered, h)
		codes := []int32{} // non-nil: an empty list accepts nothing
		for c, ok := range acc {
			if ok {
				codes = append(codes, int32(c))
			}
		}
		plan.codes[h] = codes
	}
	return plan
}

// selectRows evaluates the plan's predicates against the segment and
// returns the selection bitmap (sc.Sel) with its population count — zero
// when no row matches, and then the bitmap is not to be used — and the
// bytes read. The bitmap is the same whichever predicate builds it, so
// row order and every aggregate downstream are too. Every key column is
// const or packed (parseFooter refuses any other encoding), so the
// bitmap comes from postings or from the packed codes alone.
func (s *segment) selectRows(plan *scanPlan, sc *storage.BlockScratch) (sel []uint64, count int, readBytes int64, err error) {
	foot := s.foot
	// O(1) code-space test: a const-encoded predicated key column
	// settles the whole segment before anything is read.
	for _, h := range plan.filtered {
		if h >= len(foot.keys) || foot.keys[h].enc != kencConst {
			continue
		}
		if c := int(uint32(foot.keys[h].base)); c >= len(plan.accepts[h]) || !plan.accepts[h][c] {
			return nil, 0, 0, nil
		}
	}
	mLazyFiltered.Inc()
	// Every indexed predicate's exact match count is a sum of offset
	// differences; the smallest one builds the bitmap.
	best, bestCount, fetched := -1, 0, -1
	var bestPost postings
	var bestCodes []int32
	for _, h := range plan.filtered {
		if h >= len(foot.post) || foot.post[h].kind == postNone {
			continue
		}
		p, err := s.postings(h, sc)
		if err != nil {
			return nil, 0, 0, err
		}
		fetched = h
		codes := p.clip(plan.codes[h])
		n := p.count(codes)
		readBytes += 8 * int64(len(codes))
		if n == 0 {
			return nil, 0, readBytes, nil
		}
		if best < 0 || n < bestCount {
			best, bestCount, bestPost, bestCodes = h, n, p, codes
		}
	}
	sel = sc.SelBuf(foot.rows)
	count, first := foot.rows, true
	if best >= 0 {
		if fetched != best {
			// A pread blob reuses the scratch a later fetch filled.
			if bestPost, err = s.postings(best, sc); err != nil {
				return nil, 0, 0, err
			}
		}
		bestPost.fill(sel, bestCodes)
		readBytes += (int64(bestCount)*int64(bestPost.w) + 7) / 8
		count, first = bestCount, false
		mSelectPostings.Inc()
	}
	for _, h := range plan.filtered {
		if h >= len(foot.keys) || foot.keys[h].enc == kencConst || h == best {
			continue
		}
		km, acc := &foot.keys[h], plan.accepts[h]
		payload, err := s.keyPayload(h, sc)
		if err != nil {
			return nil, 0, 0, err
		}
		readBytes += km.size
		lo, w := int32(uint32(km.base)), uint(km.width)
		if first {
			count = selInitPacked(sel, foot.rows, acc, lo, w, payload)
			first = false
			mSelectLinear.Inc()
		} else {
			count = selAndPacked(sel, acc, lo, w, payload)
		}
		if count == 0 {
			return nil, 0, readBytes, nil
		}
	}
	if first {
		// Every predicated column is const-accepted: all rows match.
		setRange(sel, 0, foot.rows)
	}
	mRowsSelected.Add(int64(count))
	return sel, count, readBytes, nil
}

// selectedRows appends the rows set in sel to dst, ascending.
func selectedRows(dst []int32, sel []uint64) []int32 {
	for w, word := range sel {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// compact moves the selected rows of a fully decoded column to its front
// in one sequential pass and returns them. idx ascends, so idx[k] ≥ k and
// no row is overwritten before it is read.
func compact[T int32 | float64](col []T, idx []int32) []T {
	for k, r := range idx {
		col[k] = col[r]
	}
	return col[:len(idx)]
}

// prunedByPreds probes the zone maps with prepared predicates: identical
// decisions to a linear sweep over the raw member lists (a segment is
// pruned iff no accepted member falls inside its [lo, hi] code range),
// but each probe is a range check plus one binary search.
func (foot *footer) prunedByPreds(pps []preparedPred) bool {
	for i := range pps {
		p := &pps[i]
		if p.hier >= len(foot.keys) || p.level >= len(foot.keys[p.hier].zones) {
			continue
		}
		z := foot.keys[p.hier].zones[p.level]
		if p.lo > z.hi || p.hi < z.lo {
			return true
		}
		j := sort.Search(len(p.members), func(k int) bool { return p.members[k] >= z.lo })
		if j == len(p.members) || p.members[j] > z.hi {
			return true
		}
	}
	return false
}

// accepted reports whether acc accepts code c. Codes come off disk: one
// outside the dictionary the vector was built over matches nothing.
func accepted(acc []bool, c int32) bool { return uint(c) < uint(len(acc)) && acc[c] }

// selInitPacked fills sel by evaluating acc against a bit-packed key
// column straight off its payload — the column is never materialized.
// 64·w bits is a whole number of bytes, so every 64-row block starts on
// a byte boundary and batch-decodes independently into a stack buffer
// that stays in L1; only the acceptance bits leave the register file.
func selInitPacked(sel []uint64, rows int, acc []bool, lo int32, w uint, payload []byte) int {
	var buf [64]int32
	count := 0
	for wi := range sel {
		base := wi << 6
		m := rows - base
		if m > 64 {
			m = 64
		}
		unpackWordsKeys(buf[:m], lo, w, payload[base/8*int(w):])
		var word uint64
		for j := 0; j < m; j++ {
			if accepted(acc, buf[j]) {
				word |= 1 << uint(j)
			}
		}
		sel[wi] = word
		count += bits.OnesCount64(word)
	}
	return count
}

// selAndPacked intersects sel with acc evaluated off a bit-packed
// payload; only currently-set rows are unpacked and tested.
func selAndPacked(sel []uint64, acc []bool, lo int32, w uint, payload []byte) int {
	count := 0
	for wi, word := range sel {
		if word == 0 {
			continue
		}
		base := wi << 6
		for t := word; t != 0; t &= t - 1 {
			j := bits.TrailingZeros64(t)
			if !accepted(acc, lo+int32(unpackU64(payload, base+j, w))) {
				word &^= 1 << uint(j)
			}
		}
		sel[wi] = word
		count += bits.OnesCount64(word)
	}
	return count
}
