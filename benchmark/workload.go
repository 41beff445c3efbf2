package main

import "github.com/assess-olap/assess/internal/mdm"

// workload is one deployment × traffic pair. Traffic is closed loop:
// every client sends its next statement when the previous reply has been
// read, as an analyst reading a labelled cube or a dashboard tile
// waiting for its data does.
type workload struct {
	name string
	// why is the line BENCHMARK.json carries for the workload.
	why string

	// Deployment.
	sf        float64
	backend   backend
	budget    bool // also deploy LINEORDER_BUDGET (external benchmarks)
	views     bool // materialize tileViews
	admission bool // sched.NewAdmission(16, 256, 0) in front of /assess

	// Traffic.
	clients int
	// perSecond is the number of timed statements per second of
	// --seconds, all clients together: a run times perSecond × seconds
	// statements, however long they take. It was calibrated once on the
	// 2-core reference host so that the timed phase lasts between one
	// and one and a half times --seconds, and is frozen: both sides of a
	// comparison execute the same statements, and a faster program
	// finishes sooner.
	perSecond float64
	// warmup is the number of statements discarded before timing.
	warmup int
	// statements generates n requests for the seed.
	statements func(s *mdm.Schema, seed int64, n int) []statement
	// appendEvery, when > 0, runs the writer: a batch of appendRows
	// newest-month rows goes into LINEORDER after every appendEvery-th
	// completed read.
	appendEvery int
	appendRows  int
}

func coldIntentions(s *mdm.Schema, seed int64, n int) []statement {
	return generate(s, seed, intentionShapes, n)
}

func coldSelective(s *mdm.Schema, seed int64, n int) []statement {
	return generate(s, seed, selectiveShapes, n)
}

func dashboard(s *mdm.Schema, seed int64, n int) []statement {
	return replay(tiles(s, seed), seed, n)
}

// workloads is the benchmark's fixed list. At the 12 seconds of
// BENCHMARK.json the counts are 600 distinct statements, 2 × 3000 tile
// requests, 1800 selective statements, 600 reads beside 100 batches of
// 10 000 appended rows, and the same 600 statements again (see README.md,
// "Sizing").
var workloads = []*workload{
	{
		name:    "cold_resident",
		why:     "paper's four intentions, all distinct, on resident data: engine scan, exec label and server encode do the work; cache, store and dist are bypassed",
		sf:      0.2,
		backend: resident, budget: true,
		clients: 1, perSecond: 50, warmup: 20,
		statements: coldIntentions,
	},
	{
		name:    "warm_dashboard",
		why:     "2 clients replay 24 tiles over views with admission on: parser, binder, planner, cache and server are the whole trip; the engine is idle",
		sf:      0.2,
		backend: resident, budget: true, views: true, admission: true,
		clients: 2, perSecond: 500, warmup: 48,
		statements: dashboard,
	},
	{
		name:    "cold_segment",
		why:     "distinct selective statements on an mmap segment store: colstore prune, code-space filter and gather decode dominate; label and encode are negligible",
		sf:      0.5,
		backend: segment,
		clients: 1, perSecond: 150, warmup: 200,
		statements: coldSelective,
	},
	{
		name:    "append_segment",
		why:     "tile reads beside a writer appending to the segment store: generation bumps empty cache and views, scans cover segments and WAL tail, compaction takes the second core",
		sf:      0.2,
		backend: segment, budget: true, views: true,
		clients: 1, perSecond: 50, warmup: 48,
		statements:  dashboard,
		appendEvery: 6, appendRows: 10000,
	},
	{
		name:    "cold_sharded",
		why:     "the cold_resident statements behind a 2-shard coordinator: plan, route, fan-out, ADP1 codec and merge are the only difference, and the slower shard sets each scan",
		sf:      0.2,
		backend: sharded, budget: true,
		clients: 1, perSecond: 50, warmup: 20,
		statements: coldIntentions,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
