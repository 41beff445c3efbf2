package dist

import "github.com/assess-olap/assess/internal/obsv"

// Distributed-execution metrics, exported on /metrics next to the
// engine and scheduler families (see docs/observability.md).
var (
	mDistFanouts = obsv.Default.Counter("assess_dist_fanouts_total",
		"Fact scans fanned out to shard workers by the coordinator.")
	mDistShardScans = obsv.Default.Counter("assess_dist_shard_scans_total",
		"Per-shard partial-aggregate scans dispatched (all attempts).")
	mDistShardErrors = obsv.Default.Counter("assess_dist_shard_errors_total",
		"Per-shard scan attempts that failed or timed out.")
	mDistRedispatches = obsv.Default.Counter("assess_dist_redispatches_total",
		"Straggler/failure re-dispatches to a replica.")
	mDistLocalFallbacks = obsv.Default.Counter("assess_dist_local_fallbacks_total",
		"Shard partials served by the coordinator's local copy after all replicas failed.")
	mDistPartialsServed = obsv.Default.Counter("assess_dist_partials_served_total",
		"Queries answered with partial results under PolicyPartial.")
	mDistUnavailable = obsv.Default.Counter("assess_dist_unavailable_total",
		"Queries rejected with Unavailable under PolicyFail.")
	mDistShardsPruned = obsv.Default.Counter("assess_dist_shards_pruned_total",
		"Shards skipped by predicate routing (member hash proves the shard empty for the query).")
	mDistAppends = obsv.Default.Counter("assess_dist_appends_total",
		"Appends routed through the coordinator to their owning shard.")
	hDistFanout = obsv.Default.Histogram("assess_dist_fanout_seconds",
		"Wall time of one scatter-gather fan-out (dispatch to last partial).")
	hDistShard = obsv.Default.Histogram("assess_dist_shard_seconds",
		"Per-shard partial scan latency (successful attempts).")
	hDistMerge = obsv.Default.Histogram("assess_dist_merge_seconds",
		"Coordinator-side combine of shard replies (engine.Combine) and finalize time.")
)
