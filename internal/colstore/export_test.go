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
