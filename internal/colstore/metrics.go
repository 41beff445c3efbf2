package colstore

import "github.com/assess-olap/assess/internal/obsv"

const selectsHelp = "Segments whose selection bitmap was built, by access path: from postings (work proportional to the matches) or by a linear sweep over a predicate column's codes (segments without postings)."

// Store-level metrics, published to the process registry like the
// engine's scan counters. Tests assert zone-map pruning through
// mPruned rather than reaching into reader internals.
var (
	mSegsWritten = obsv.Default.Counter("assess_store_segments_total",
		"Segment files written (bulk loads, WAL folds, and merges).")
	mPruned = obsv.Default.Counter("assess_store_pruned_total",
		"Segments skipped by zone-map pruning before decode.")
	mDecoded = obsv.Default.Counter("assess_store_segments_decoded_total",
		"Segments decoded for scans.")
	hDecodeBytes = obsv.Default.Histogram("assess_store_decode_bytes",
		"Compressed bytes read per segment decode.")
	mSelectPostings = obsv.Default.Counter("assess_store_index_selects_total", selectsHelp, "path", "postings")
	mSelectLinear   = obsv.Default.Counter("assess_store_index_selects_total", selectsHelp, "path", "linear")
	mRowsSelected   = obsv.Default.Counter("assess_store_rows_selected_total",
		"Rows that passed code-space predicate evaluation in segments (the set bits of every selection bitmap handed to a scan).")
	mLazyFiltered = obsv.Default.Counter("assess_store_lazy_filtered_total",
		"Segments whose predicates were evaluated in code space before measure decode (late materialization).")
	mLazySkipped = obsv.Default.Counter("assess_store_lazy_skipped_total",
		"Segments skipped because code-space predicate evaluation proved no row matches (row-level complement to zone maps).")
	mLazyGathered = obsv.Default.Counter("assess_store_lazy_gather_total",
		"Columns gather-decoded for sparse selections (selected rows only) instead of fully materialized.")
	mWALAppends = obsv.Default.Counter("assess_store_wal_appends_total",
		"Rows appended through the write-ahead log.")
	mCompactions = obsv.Default.Counter("assess_store_compactions_total",
		"Compaction passes (WAL folds and small-segment merges).")
)
