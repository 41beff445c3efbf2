package engine

import "github.com/assess-olap/assess/internal/obsv"

// Engine-level metrics, published into the process-wide registry. These
// are plain atomic counters on the scan and transfer paths; the cost per
// query is a handful of atomic adds, so they stay on unconditionally.
var (
	mRowsScanned = obsv.Default.Counter("assess_engine_rows_scanned_total",
		"Fact-table rows swept by fact scans that answered: every row of a block decoded, or only the rows its postings selected; none of a pruned block. A view build sweeps the whole table, a refresh the rows past the view's mark.")
	mScansSerial = obsv.Default.Counter("assess_engine_scans_total",
		"Aggregate evaluations by mode.", "mode", "serial")
	mScansParallel = obsv.Default.Counter("assess_engine_scans_total",
		"Aggregate evaluations by mode.", "mode", "parallel")
	mScansView = obsv.Default.Counter("assess_engine_scans_total",
		"Aggregate evaluations by mode.", "mode", "view")
	mKernelDense = obsv.Default.Counter("assess_engine_kernel_total",
		"Aggregation kernel selections by mode, one per scan: fact scans, view builds and roll-ups, shard replies combined.", "mode", "dense")
	mKernelHash = obsv.Default.Counter("assess_engine_kernel_total",
		"Aggregation kernel selections by mode, one per scan: fact scans, view builds and roll-ups, shard replies combined.", "mode", "hash")
	mMorsels = obsv.Default.Counter("assess_engine_morsels_total",
		"Morsels processed by morsel-driven fact scans.")
	mCancelled = obsv.Default.Counter("assess_engine_scans_cancelled_total",
		"Scans ended by their request's context: the caller hung up, or a coordinator abandoned the shard attempt.")
	mPanics = obsv.Default.Counter("assess_query_panics_total",
		"Panics recovered on scan workers and shard fan-out goroutines: each failed its query or shard attempt, and the process went on.")
	mTransferBytes = obsv.Default.Counter("assess_engine_transfer_bytes_total",
		"Bytes the pushed results would move across an engine-to-client cursor, in the row codec.")
	mTransferCells = obsv.Default.Counter("assess_engine_transfer_cells_total",
		"Result cells the pushed results would move across an engine-to-client cursor.")
	// Aggregate-navigator metrics: how each aggregate resolved against
	// the view lattice, and the admission layer's churn.
	mViewExact = obsv.Default.Counter("assess_engine_view_total",
		"Aggregate resolutions against the view lattice by mode.", "mode", "exact")
	mViewRollup = obsv.Default.Counter("assess_engine_view_total",
		"Aggregate resolutions against the view lattice by mode.", "mode", "rollup")
	mViewMiss = obsv.Default.Counter("assess_engine_view_total",
		"Aggregate resolutions against the view lattice by mode.", "mode", "miss")
	// A predicated view answer reads its cells off the member index, or a
	// roll-up of a wide slice feeds the kernel every cell of the view.
	mViewSelectIndex = obsv.Default.Counter("assess_engine_view_selects_total",
		"Predicated view answers by how their cells were selected: off the view's member index, or every cell fed to a roll-up.", "path", "index")
	mViewSelectLinear = obsv.Default.Counter("assess_engine_view_selects_total",
		"Predicated view answers by how their cells were selected: off the view's member index, or every cell fed to a roll-up.", "path", "linear")
	gViewBytes = obsv.Default.Gauge("assess_engine_view_bytes",
		"Approximate resident bytes of materialized views.")
	mViewAdmissions = obsv.Default.Counter("assess_engine_view_admissions_total",
		"Views installed by the adaptive admission layer.")
	mViewEvictions = obsv.Default.Counter("assess_engine_view_evictions_total",
		"Admitted views evicted by the LRU byte budget.")
	// A stale view is refreshed (the rows past its mark absorbed), rebuilt
	// from row 0 when the delta cannot be trusted, or dropped when its
	// scan fails.
	mViewRefreshed = obsv.Default.Counter("assess_engine_view_stale_total",
		"Stale views handled after fact growth, by action.", "action", "refreshed")
	mViewRebuilt = obsv.Default.Counter("assess_engine_view_stale_total",
		"Stale views handled after fact growth, by action.", "action", "rebuilt")
	mViewStaleDropped = obsv.Default.Counter("assess_engine_view_stale_total",
		"Stale views handled after fact growth, by action.", "action", "dropped")
	mViewRefreshRows = obsv.Default.Counter("assess_engine_view_refresh_rows_total",
		"Fact rows absorbed into views by refreshes.")
)
