// Compaction: folding the WAL tail into immutable segments and merging
// adjacent undersized segments into full ones. Both transformations
// preserve the logical row sequence exactly — compaction never changes
// Rows() or the data any snapshot observes — so query results, cache
// generations, and materialized views all stay valid across a pass.
//
// The WAL fold is crash-safe in four steps:
//
//  1. write + fsync the new segment files (orphans if we crash here);
//  2. manifest: add segments, record walSkip += folded under the
//     current walEpoch (replay now skips the folded prefix);
//  3. atomically swap in a new WAL at epoch+1 seeded with the records
//     appended since the fold began (an epoch mismatch at open means
//     the crash landed between 3 and 4: skip nothing);
//  4. manifest: walEpoch = epoch+1, walSkip = 0.
//
// Replaced and folded segments are refcounted; their files are
// unlinked when the last snapshot using them closes.
package colstore

import (
	"os"
	"path/filepath"
	"strings"

	"github.com/assess-olap/assess/internal/storage"
)

// compact runs one full pass: fold, merge and, when upgrade is set, a
// rewrite of whatever version 1 segments the merge left. Caller holds
// compactMu, so nothing else changes the segment list meanwhile.
func (st *Store) compact(upgrade bool) error {
	worked, err := st.foldWAL()
	if err != nil {
		return err
	}
	merged, err := st.mergeRuns()
	if err != nil {
		return err
	}
	upgraded := false
	if upgrade {
		if upgraded, err = st.upgradeSegments(); err != nil {
			return err
		}
	}
	if worked || merged || upgraded {
		st.compactions.Add(1)
		mCompactions.Inc()
	}
	return nil
}

// foldWAL turns the current WAL tail into segments.
func (st *Store) foldWAL() (bool, error) {
	st.mu.Lock()
	fold := st.tailRows
	if fold == 0 {
		st.mu.Unlock()
		return false, nil
	}
	// Snapshot the rows to fold and reserve segment numbers. Tail
	// columns are append-only, so aliasing is safe while unlocked.
	keys := make([][]int32, len(st.tailKeys))
	for h, col := range st.tailKeys {
		keys[h] = col[:fold]
	}
	meas := make([][]float64, len(st.tailMeas))
	for m, col := range st.tailMeas {
		meas[m] = col[:fold]
	}
	chunks := (fold + st.opts.SegmentRows - 1) / st.opts.SegmentRows
	firstSeq := st.seq
	st.seq += uint64(chunks)
	ruMaps := st.ruMaps
	st.mu.Unlock()

	// Step 1: write the segment files without blocking appends.
	newSegs := make([]*segment, 0, chunks)
	fail := func(err error) (bool, error) {
		for _, s := range newSegs {
			s.removeOnRelease.Store(true)
			s.release()
		}
		return false, err
	}
	for c := 0; c < chunks; c++ {
		lo := c * st.opts.SegmentRows
		hi := min(lo+st.opts.SegmentRows, fold)
		ck := make([][]int32, len(keys))
		for h := range keys {
			ck[h] = keys[h][lo:hi]
		}
		cm := make([][]float64, len(meas))
		for m := range meas {
			cm[m] = meas[m][lo:hi]
		}
		path := filepath.Join(st.dir, segName(firstSeq+uint64(c)))
		if _, err := writeSegment(path, ck, cm, hi-lo, ruMaps); err != nil {
			return fail(err)
		}
		seg, err := openSegment(path, st.noMmap)
		if err != nil {
			return fail(err)
		}
		newSegs = append(newSegs, seg)
	}

	st.appendMu.Lock()
	defer st.appendMu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	// Step 2: acknowledge the fold in the manifest under the old epoch.
	st.segs = append(st.segs, newSegs...)
	st.segRows += fold
	st.walSkip += fold
	if err := st.writeManifest(); err != nil {
		return false, err
	}
	// Step 3: swap in a new WAL carrying only the rows appended since
	// the fold snapshot.
	remain := st.tailRows - fold
	var records []byte
	vals := make([]float64, len(st.tailMeas))
	row := make([]int32, len(st.tailKeys))
	for r := fold; r < st.tailRows; r++ {
		for h := range row {
			row[h] = st.tailKeys[h][r]
		}
		for m := range vals {
			vals[m] = st.tailMeas[m][r]
		}
		records = appendRecord(records, row, vals)
	}
	walPath := filepath.Join(st.dir, walName)
	if err := writeWAL(walPath, st.walEpoch+1, records); err != nil {
		return false, err
	}
	newWAL, err := openWAL(walPath, st.walMapped)
	if err != nil {
		return false, err
	}
	st.wal.close(false)
	st.wal = newWAL
	st.walEpoch++
	st.walSkip = 0
	// Trim the resident tail to the unfolded remainder (fresh backing
	// arrays; snapshots alias the old ones).
	for h := range st.tailKeys {
		st.tailKeys[h] = append([]int32(nil), st.tailKeys[h][fold:fold+remain]...)
	}
	for m := range st.tailMeas {
		st.tailMeas[m] = append([]float64(nil), st.tailMeas[m][fold:fold+remain]...)
	}
	st.tailRows = remain
	// Step 4: acknowledge the rotation.
	return true, st.writeManifest()
}

// mergeRuns coalesces adjacent runs of undersized segments (< half the
// target) into single segments, bounded by the target size.
func (st *Store) mergeRuns() (bool, error) {
	small := st.opts.SegmentRows / 2
	merged := false
	for {
		st.mu.Lock()
		lo, hi := -1, -1
		sum := 0
		for i := 0; i <= len(st.segs); i++ {
			ok := i < len(st.segs) && st.segs[i].foot.rows < small && sum+st.segs[i].foot.rows <= st.opts.SegmentRows
			if ok {
				if lo < 0 {
					lo = i
				}
				sum += st.segs[i].foot.rows
				hi = i
				continue
			}
			if lo >= 0 && hi > lo {
				break // found a run of ≥ 2
			}
			lo, hi, sum = -1, -1, 0
		}
		st.mu.Unlock()
		if lo < 0 || hi <= lo {
			return merged, nil
		}
		if err := st.rewrite(lo, hi); err != nil {
			return merged, err
		}
		merged = true
	}
}

// upgradeSegments rewrites, one by one, the segments written before
// postings existed; the rows and their order do not change.
func (st *Store) upgradeSegments() (bool, error) {
	upgraded := false
	for i := 0; ; i++ {
		st.mu.Lock()
		for i < len(st.segs) && st.segs[i].foot.post != nil {
			i++
		}
		done := i >= len(st.segs)
		st.mu.Unlock()
		if done {
			return upgraded, nil
		}
		if err := st.rewrite(i, i); err != nil {
			return upgraded, err
		}
		upgraded = true
	}
}

// rewrite replaces the adjacent segments st.segs[lo..hi] by one newly
// written segment holding the same rows in the same order.
func (st *Store) rewrite(lo, hi int) error {
	st.mu.Lock()
	run := make([]*segment, hi-lo+1)
	copy(run, st.segs[lo:hi+1])
	rows := 0
	for _, s := range run {
		s.acquire() // pin for reading outside the lock
		rows += s.foot.rows
	}
	seq := st.seq
	st.seq++
	ruMaps := st.ruMaps
	st.mu.Unlock()
	defer func() {
		for _, s := range run {
			s.release() // the pin taken above
		}
	}()

	keys, meas, err := st.concatSegments(run, rows)
	if err != nil {
		return err
	}
	path := filepath.Join(st.dir, segName(seq))
	if _, err := writeSegment(path, keys, meas, rows, ruMaps); err != nil {
		return err
	}
	seg, err := openSegment(path, st.noMmap)
	if err != nil {
		return err
	}
	st.mu.Lock()
	rest := append([]*segment{}, st.segs[:lo]...)
	rest = append(rest, seg)
	rest = append(rest, st.segs[hi+1:]...)
	st.segs = rest
	err = st.writeManifest()
	st.mu.Unlock()
	if err != nil {
		return err
	}
	// Drop the store's reference to the replaced segments and unlink
	// once scans drain.
	for _, s := range run {
		s.removeOnRelease.Store(true)
		s.release()
	}
	return nil
}

// concatSegments decodes the given segments into fresh concatenated
// columns (all columns, rows total rows).
func (st *Store) concatSegments(segs []*segment, rows int) ([][]int32, [][]float64, error) {
	nk := len(st.schema.Hiers)
	nm := len(st.schema.Measures)
	keys := make([][]int32, nk)
	for h := range keys {
		keys[h] = make([]int32, 0, rows)
	}
	meas := make([][]float64, nm)
	for m := range meas {
		meas[m] = make([]float64, 0, rows)
	}
	var sc storage.BlockScratch
	for _, s := range segs {
		cols, _, err := s.decodeInto(storage.ColSet{}, nil, 0, &sc)
		if err != nil {
			return nil, nil, err
		}
		for h := range keys {
			keys[h] = append(keys[h], cols.Keys[h]...)
		}
		for m := range meas {
			meas[m] = append(meas[m], cols.Meas[m]...)
		}
	}
	return keys, meas, nil
}

// cleanOrphans removes segment files and temporaries that the manifest
// does not reference — debris from a crash mid-compaction. Stores are
// single-process; Open owns the directory.
func cleanOrphans(dir string, man manifest) {
	live := make(map[string]bool, len(man.Segments))
	for _, s := range man.Segments {
		live[s.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !live[name]) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
