// Snapshots: the store's ScanSource. A snapshot pins the segment list
// and the tail length at one instant; blocks 0..n−1 are the segments
// (decoded on demand, or refused when zone maps prune them) and block n
// is the resident WAL tail, served zero-copy. Concatenated in order the
// blocks are exactly the fact rows in append order, which is what keeps
// scans bit-exact with the resident backend.
package colstore

import "github.com/assess-olap/assess/internal/storage"

type snapshot struct {
	segs   []*segment
	pruned []bool
	need   storage.ColSet

	// plan is the prepared predicate set (nil without predicates); lazy
	// gates row-level code-space filtering (a store's eager switch turns
	// it off, keeping the prepared zone-map probes).
	plan         *scanPlan
	lazy         bool
	gatherCutoff float64

	tailKeys [][]int32
	tailMeas [][]float64
	tailRows int
	rows     int
}

// Snapshot captures a consistent view for one scan. preds, prepared by
// storage.Accepts, are planned once (sorted member sets for the zone-map
// probes; the acceptance vectors over base codes they carry, for late
// materialization) and evaluated against every segment; on an eager store
// (a test-only switch) they prune segments only and row-exact filtering
// stays with the engine.
// The caller must Close the snapshot to release segment references.
func (st *Store) Snapshot(need storage.ColSet, preds []storage.LevelPred) storage.ScanSource {
	st.mu.Lock()
	sn := &snapshot{
		segs:         make([]*segment, len(st.segs)),
		pruned:       make([]bool, len(st.segs)),
		need:         need,
		lazy:         !st.eager,
		gatherCutoff: st.gatherCutoff,
		tailKeys:     make([][]int32, len(st.tailKeys)),
		tailMeas:     make([][]float64, len(st.tailMeas)),
		tailRows:     st.tailRows,
		rows:         st.segRows + st.tailRows,
	}
	copy(sn.segs, st.segs)
	for _, s := range sn.segs {
		s.acquire()
	}
	// Tail columns are append-only: rows < tailRows never change, so
	// aliasing the current backing arrays is safe even as appends land.
	for h, col := range st.tailKeys {
		sn.tailKeys[h] = col[:st.tailRows]
	}
	for m, col := range st.tailMeas {
		sn.tailMeas[m] = col[:st.tailRows]
	}
	st.mu.Unlock()
	sn.plan = newPlan(len(st.schema.Hiers), preds)
	if sn.plan != nil {
		for i, s := range sn.segs {
			sn.pruned[i] = s.foot.prunedByPreds(sn.plan.preds)
		}
	}
	return sn
}

func (sn *snapshot) Rows() int   { return sn.rows }
func (sn *snapshot) Blocks() int { return len(sn.segs) + 1 }

func (sn *snapshot) BlockRows(b int) int {
	if b < len(sn.segs) {
		return sn.segs[b].foot.rows
	}
	return sn.tailRows
}

func (sn *snapshot) Block(b int, sc *storage.BlockScratch) (storage.BlockCols, bool, error) {
	if b < len(sn.segs) {
		if sn.pruned[b] {
			mPruned.Inc()
			return storage.BlockCols{}, false, nil
		}
		var plan *scanPlan
		if sn.lazy {
			plan = sn.plan
		}
		return sn.segs[b].decodeInto(sn.need, plan, sn.gatherCutoff, sc)
	}
	// The resident WAL tail is served zero-copy with no selection: the
	// engine filters it on decoded codes as before.
	return storage.BlockCols{Keys: sn.tailKeys, Meas: sn.tailMeas, Rows: sn.tailRows}, true, nil
}

// PrunedFor, PrunePlan and prunePlanProbe below have no caller in the
// program since scans stopped sharing sources: they answer the seam test
// of the frozen benchmark module, which asserts them on a snapshot at run
// time, and leave with its benchmark-only PR (ROADMAP item 1c).

// PrunedFor implements storage.PruneProber: zone maps of segment blocks
// answer arbitrary predicate sets, through the same prepared probe a
// scan's plan uses; the WAL tail has no zone maps and is never pruned.
func (sn *snapshot) PrunedFor(b int, preds []storage.LevelPred) bool {
	if b < len(sn.segs) {
		return sn.segs[b].foot.prunedByPreds(preparePreds(preds))
	}
	return false
}

// prunePlanProbe is a prepared PrunedFor: the predicate set is sorted
// and min-maxed once, then each block probe is a couple of comparisons
// plus a binary search per predicate.
type prunePlanProbe struct {
	sn  *snapshot
	pps []preparedPred
}

func (p prunePlanProbe) Pruned(b int) bool {
	if b < len(p.sn.segs) {
		return p.sn.segs[b].foot.prunedByPreds(p.pps)
	}
	return false
}

// PrunePlan implements storage.PrunePlanner.
func (sn *snapshot) PrunePlan(preds []storage.LevelPred) storage.PrunePlan {
	return prunePlanProbe{sn: sn, pps: preparePreds(preds)}
}

func (sn *snapshot) Close() {
	for _, s := range sn.segs {
		s.release()
	}
	sn.segs = nil
}
