package colstore

// DisableGather switches gather decode off for snapshots taken from now
// on, so tests can compare it with full materialization; production
// code always runs with the gatherCutoff constant.
func (st *Store) DisableGather() { st.gatherCutoff = 0 }
