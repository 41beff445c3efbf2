package sched

import "github.com/assess-olap/assess/internal/obsv"

// Scheduler metrics (assess_sched_*), published into the process-wide
// registry next to the engine and cache families.
var (
	mAdmitted = obsv.Default.Counter("assess_sched_admitted_total",
		"Requests admitted by the admission controller.")
	mRejectedFull = obsv.Default.Counter("assess_sched_rejected_total",
		"Requests shed by the admission controller, by reason.", "reason", "queue_full")
	mRejectedBudget = obsv.Default.Counter("assess_sched_rejected_total",
		"Requests shed by the admission controller, by reason.", "reason", "over_budget")
	mWaitCancelled = obsv.Default.Counter("assess_sched_wait_cancelled_total",
		"Queued requests whose context was cancelled before a slot freed.")
	gQueueDepth = obsv.Default.Gauge("assess_sched_queue_depth",
		"Requests currently waiting in the admission queue.")
	hWaitSeconds = obsv.Default.Histogram("assess_sched_wait_seconds",
		"Time queued requests waited for an execution slot.")
)
