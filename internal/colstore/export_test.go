package colstore

import "github.com/assess-olap/assess/internal/storage"

// scan is Snapshot as the engine calls it: the predicates carry the
// acceptance vectors storage.Accepts derives for them.
func (st *Store) scan(need storage.ColSet, preds []storage.LevelPred) storage.ScanSource {
	storage.Accepts(st.schema, preds)
	return st.Snapshot(need, preds)
}

// plan is the scan plan of predicates prepared the same way.
func (st *Store) plan(preds []storage.LevelPred) *scanPlan {
	storage.Accepts(st.schema, preds)
	return newPlan(len(st.schema.Hiers), preds)
}

// DisableGather switches gather decode off for snapshots taken from now
// on, so tests can compare it with full materialization; production
// code always runs with the gatherCutoff constant.
func (st *Store) DisableGather() { st.gatherCutoff = 0 }

// openPread is Open with every segment read by pread, as where mmap is
// unavailable; preadSegments puts a created store on that path for the
// segments its folds write.
func openPread(dir string, opts Options) (*Store, error) { return open(dir, opts, true) }

func (st *Store) preadSegments() { st.noMmap = true }

// decodeEagerly turns late materialization off for snapshots taken from
// now on: predicates prune segments by zone map only and every block is
// fully materialized, the pipeline late materialization is measured and
// checked against.
func (st *Store) decodeEagerly() { st.eager = true }

// positionalWAL puts the store on the WAL's fallback path, one
// positional write per record as where mmap is unavailable, for its
// current log and every log a fold rotates to.
func (st *Store) positionalWAL() {
	st.walMapped = false
	st.wal.unmap()
	st.wal.mapped = false
}
