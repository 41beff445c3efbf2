package engine

import "github.com/assess-olap/assess/internal/obsv"

// Engine-level metrics, published into the process-wide registry. These
// are plain atomic counters on the scan and transfer paths; the cost per
// query is a handful of atomic adds, so they stay on unconditionally.
var (
	mRowsScanned = obsv.Default.Counter("assess_engine_rows_scanned_total",
		"Fact-table rows covered by fact scans: the whole table for a query or a view build, the rows past the view's mark for a refresh.")
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
	mTransferBytes = obsv.Default.Counter("assess_engine_transfer_bytes_total",
		"Bytes crossing the engine-to-client cursor boundary.")
	mTransferCells = obsv.Default.Counter("assess_engine_transfer_cells_total",
		"Result cells crossing the engine-to-client cursor boundary.")
	// Aggregate-navigator metrics: how each aggregate resolved against
	// the view lattice, and the admission layer's churn.
	mViewExact = obsv.Default.Counter("assess_engine_view_total",
		"Aggregate resolutions against the view lattice by mode.", "mode", "exact")
	mViewRollup = obsv.Default.Counter("assess_engine_view_total",
		"Aggregate resolutions against the view lattice by mode.", "mode", "rollup")
	mViewMiss = obsv.Default.Counter("assess_engine_view_total",
		"Aggregate resolutions against the view lattice by mode.", "mode", "miss")
	gViewBytes = obsv.Default.Gauge("assess_engine_view_bytes",
		"Approximate resident bytes of materialized views.")
	mViewAdmissions = obsv.Default.Counter("assess_engine_view_admissions_total",
		"Views auto-materialized by the adaptive admission layer.")
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
