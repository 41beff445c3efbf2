package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// untracedSetups is how many times the untraced run sets the deployment
// up; setup_s is the median, which one slow disk flush cannot move.
const untracedSetups = 3

// runOptions is one invocation's input.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks the data to sf 0.002 and the traffic to 20
	// statements, to keep the harness exercised by `go test`.
	smoke   bool
	workdir string // where segment stores are written
	outDir  string // where the traced run writes trace_<workload>.json
}

// runResult is one invocation's outcome.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Failures holds the first few failure messages, for the log.
	Failures []string `json:"failures,omitempty"`
	// Ledger is the traced run's attribution of statement wall time to
	// layers.
	Ledger []ledgerRow `json:"ledger,omitempty"`

	spans []span // the traced run's spans, for structure checks
}

func (w *workload) scale(o runOptions) (sf float64, timed int) {
	if o.smoke {
		return 0.002, 20
	}
	return w.sf, int(math.Round(w.perSecond * o.seconds))
}

// warmUp sends the discarded prefix, with one client.
func warmUp(d *deployment, stmts []statement) error {
	cl := newClient(d.url)
	defer cl.close()
	for _, st := range stmts {
		_, status, reply, err := cl.do(st, requestBody(st), tenants[0])
		if err == nil {
			err = replyOK(st, status, reply)
		}
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", st.Text, err)
		}
	}
	return nil
}

// setUp is everything before the first timed statement: SSB generation,
// date sort, store build and open, shard split, registration, views,
// listener and warm-up. It returns the deployment and the statements
// left to time.
func setUp(w *workload, o runOptions, rec *recorder) (*deployment, []statement, error) {
	sf, timed := w.scale(o)
	d, err := deploy(w, sf, o.seed, o.workdir, rec)
	if err != nil {
		return nil, nil, err
	}
	warm := w.warmup
	if o.smoke {
		warm = 4
	}
	stmts := w.statements(d.ds.Schema, o.seed, warm+timed)
	if err := warmUp(d, stmts[:warm]); err != nil {
		d.close()
		return nil, nil, err
	}
	return d, stmts[warm:], nil
}

// runWorkload performs one invocation: set-up (several times when
// untraced), the timed phase, the correctness gate, and the metrics of
// the requested kind.
func runWorkload(w *workload, o runOptions) (*runResult, error) {
	var rec *recorder
	setups := untracedSetups
	if o.trace {
		rec = newRecorder()
		setups = 1
	}
	var (
		d      *deployment
		stmts  []statement
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
			d, stmts = nil, nil
			// Return the previous set-up's memory before the next one, so
			// the peak resident set is that of one deployment.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if d, stmts, err = setUp(w, o, rec); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.close()

	before := readCounters()
	cacheBefore, _ := d.session.CacheStats()
	_, gcBefore := heapMB()
	cpuBefore, err := cpuTime()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.blockCalls.Store(0) // count the timed phase only, not the warm-up
	}
	ph := drive(d, w, stmts, rec, time.Duration(3*o.seconds*float64(time.Second)))
	var blockCalls int64
	if rec != nil {
		blockCalls = rec.blockCalls.Load()
	}
	cpuAfter, err := cpuTime()
	if err != nil {
		return nil, err
	}
	after := readCounters()
	cacheAfter, _ := d.session.CacheStats()
	heap, gcAfter := heapMB()
	if ph.appendErr != nil {
		return nil, fmt.Errorf("writer: %w", ph.appendErr)
	}

	res := &runResult{Workload: w.name, Seed: o.seed, Trace: o.trace, Attempted: len(ph.samples)}
	fail := func(msg string) {
		res.Failed++
		if len(res.Failures) < 5 {
			res.Failures = append(res.Failures, msg)
		}
	}
	var lats []time.Duration
	for _, s := range ph.samples {
		if s.err != nil {
			fail(fmt.Sprintf("%q: %v", stmts[s.idx].Text, s.err))
			// A failed statement is slower than any latency limit.
			s.lat = ph.wall
		}
		lats = append(lats, s.lat)
	}
	mismatches, err := verify(d, w, stmts, ph.appended)
	if err != nil {
		return nil, err
	}
	for _, m := range mismatches {
		fail(m)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if !o.trace {
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(setupS))
		m.set("stmt_p50_ms", percentile(lats, 50))
		m.set("stmt_p95_ms", percentile(lats, 95))
		m.set("stmts_per_s", float64(res.Attempted-res.Failed)/ph.wall.Seconds())
		m.set("cpu_ms_per_stmt", millis(cpuAfter-cpuBefore)/float64(res.Attempted))
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss)
		res.Metrics = m.complete()
		return res, nil
	}

	m := newMetricSet(perLayer)
	res.Ledger = layerMetrics(m, rec, ph, stmts)
	countMetrics(m, before, after)
	m.set("colstore.blocks_total", float64(blockCalls))
	m.set("colstore.bytes_per_row", d.bytesPerRow)
	m.set("colstore.build_rows_per_s", d.buildRowsPerSec)
	m.set("colstore.open_ms", d.openMs)
	if ph.appended > 0 {
		var total time.Duration
		for _, a := range ph.appendDur {
			total += a
		}
		m.set("colstore.wal_append_us_per_row", float64(total)/float64(time.Microsecond)/float64(ph.appended))
		m.set("append_p50_ms", percentile(ph.appendDur, 50))
	}
	if lookups := float64(cacheAfter.Hits - cacheBefore.Hits + cacheAfter.Misses - cacheBefore.Misses); lookups > 0 {
		m.set("qcache.hit_ratio", float64(cacheAfter.Hits-cacheBefore.Hits)/lookups)
	}
	m.set("qcache.evictions", float64(cacheAfter.Evictions-cacheBefore.Evictions))
	m.set("proc.gc_cycles", float64(gcAfter-gcBefore))
	m.set("proc.heap_mb", heap)
	res.Metrics = m.complete()
	res.spans = rec.spans
	if err := rec.write(filepath.Join(o.outDir, "trace_"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// ledgerRow is one layer's line of the ledger: its self time added up
// over the traced statements, and that as a share of their wall time.
// The rows partition the statements' wall time, so the shares sum to 1.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"selfMs"`
	Share  float64 `json:"share"`
}

// layerMetrics derives the span metrics of the traced run and the
// ledger. A layer's self time is its span minus the union of its
// children's intervals; net.self_ms and server.self_ms are what is left
// of stmt and server.handler after everything timed directly, residuals
// and not measurements.
func layerMetrics(m *metricSet, rec *recorder, ph *phase, stmts []statement) []ledgerRow {
	perStmt := make(map[string][]float64)
	add := func(name string, us float64) { perStmt[name] = append(perStmt[name], us) }
	layers := []string{"net", "server", "parser", "semantic", "plan", "qcache", "exec", "engine", "colstore", "dist", "dist.shards"}
	self := make(map[string]float64)
	var covered, handlerWall, stmtWall float64
	for _, spans := range byStatement(rec.spans) {
		stmt, handler := sumNamed(spans, spanStmt), sumNamed(spans, spanHandler)
		if handler == 0 {
			continue // the statement failed before the handler span closed
		}
		parse, bind := sumNamed(spans, spanParse), sumNamed(spans, spanBind)
		build, probe := sumNamed(spans, spanPlan), sumNamed(spans, spanProbe)
		total, get := sumNamed(spans, spanExecTotal), sumNamed(spans, spanExecGet)
		phases := get + sumNamed(spans, spanExecTransform) + sumNamed(spans, spanExecJoin) +
			sumNamed(spans, spanExecCompare) + sumNamed(spans, spanExecLabel)
		add("net.self_ms", stmt-handler)
		add("server.handler_ms", handler)
		add("server.self_ms", handler-total-parse-bind-build-probe)
		add("parser.parse_us", parse)
		add("semantic.bind_us", bind)
		add("plan.build_us", build)
		add("qcache.probe_us", probe)
		add("exec.total_ms", total)
		add("exec.get_ms", get)
		add("exec.transform_ms", sumNamed(spans, spanExecTransform))
		add("exec.join_ms", sumNamed(spans, spanExecJoin))
		add("exec.compare_ms", sumNamed(spans, spanExecCompare))
		add("exec.label_ms", sumNamed(spans, spanExecLabel))
		add("engine.self_ms", get-unionNamed(spans, spanDistScan, spanSnapshot, spanBlock))
		add("colstore.snapshot_us", sumNamed(spans, spanSnapshot))
		add("colstore.block_busy_ms", sumNamed(spans, spanBlock))
		scan, shards := sumNamed(spans, spanDistScan), unionNamed(spans, spanShard)
		add("dist.scan_ms", scan)
		add("dist.shard_busy_ms", sumNamed(spans, spanShard))
		add("dist.shard_max_ms", slowestShards(spans))
		add("dist.self_ms", scan-shards)
		covered += parse + bind + build + probe + phases
		handlerWall += handler

		stmtWall += stmt
		store := unionNamed(spans, spanSnapshot, spanBlock)
		for i, v := range []float64{stmt - handler, handler - total - parse - bind - build - probe, parse, bind, build, probe,
			total - get, get - scan - store, store, scan - shards, shards} {
			self[layers[i]] += v
		}
	}
	var ledger []ledgerRow
	for _, l := range layers {
		if stmtWall > 0 {
			ledger = append(ledger, ledgerRow{Layer: l, SelfMs: self[l] / 1e3, Share: self[l] / stmtWall})
		}
	}
	for name, v := range perStmt {
		scale := 1.0
		if strings.HasSuffix(name, "_ms") {
			scale = 1e-3 // spans are kept in microseconds
		}
		m.set(name, median(v)*scale)
	}
	if handlerWall > 0 {
		m.set("trace.coverage", covered/handlerWall)
	}

	// Latency metrics of the traced run come from the statements it left
	// untraced, so that they carry no tracing overhead; the traced ones
	// give the overhead ratio.
	var traced, plain []time.Duration
	var kb []float64
	byKind := make(map[string][]time.Duration)
	within := 0
	for _, s := range ph.samples {
		kb = append(kb, float64(s.bytes)/1024)
		if s.err != nil {
			continue
		}
		if s.traced {
			traced = append(traced, s.lat)
			continue
		}
		plain = append(plain, s.lat)
		byKind[stmts[s.idx].Kind] = append(byKind[stmts[s.idx].Kind], s.lat)
		if s.lat <= 100*time.Millisecond {
			within++
		}
	}
	m.set("server.resp_kb", median(kb))
	for _, kind := range []string{"constant", "external", "sibling", "past"} {
		if len(byKind[kind]) > 0 {
			m.set("intent."+kind+"_p50_ms", percentile(byKind[kind], 50))
		}
	}
	if len(plain) > 0 {
		m.set("interactive.within_100ms_ratio", float64(within)/float64(len(plain)))
		if len(traced) > 0 {
			m.set("trace.overhead_ratio", percentile(traced, 50)/percentile(plain, 50))
		}
	}
	return ledger
}

// slowestShards adds up, over the statement's coordinator scans, the
// duration of each scan's slowest shard: the part of the fan-out that
// bounds the scan.
func slowestShards(spans []span) float64 {
	var scans, shards []span
	for _, s := range spans {
		switch s.Name {
		case spanDistScan:
			scans = append(scans, s)
		case spanShard:
			shards = append(shards, s)
		}
	}
	sort.Slice(scans, func(i, j int) bool { return scans[i].StartUs < scans[j].StartUs })
	var total float64
	for _, sc := range scans {
		var slowest float64
		for _, sh := range shards {
			if sh.StartUs >= sc.StartUs && sh.EndUs <= sc.EndUs && sh.dur() > slowest {
				slowest = sh.dur()
			}
		}
		total += slowest
	}
	return total
}

// countMetrics reports the deltas of the program's own counters (the
// obsv registry behind GET /metrics) over the timed phase.
func countMetrics(m *metricSet, before, after counters) {
	d := func(keys ...string) float64 { return before.delta(after, keys...) }
	m.set("sched.admitted", d("assess_sched_admitted_total"))
	m.set("sched.rejected", d(`assess_sched_rejected_total{reason="queue_full"}`, `assess_sched_rejected_total{reason="over_budget"}`))
	if waits := d("assess_sched_wait_seconds_count"); waits > 0 {
		m.set("sched.admit_wait_us", d("assess_sched_wait_seconds_sum")/waits*1e6)
	}
	m.set("engine.scans", d(`assess_engine_scans_total{mode="serial"}`, `assess_engine_scans_total{mode="parallel"}`))
	m.set("engine.rows_scanned", d("assess_engine_rows_scanned_total"))
	m.set("engine.kernel_dense", d(`assess_engine_kernel_total{mode="dense"}`))
	m.set("engine.kernel_hash", d(`assess_engine_kernel_total{mode="hash"}`))
	m.set("engine.morsels", d("assess_engine_morsels_total"))
	m.set("engine.view_hits", d(`assess_engine_view_total{mode="exact"}`, `assess_engine_view_total{mode="rollup"}`))
	m.set("engine.view_misses", d(`assess_engine_view_total{mode="miss"}`))
	m.set("engine.transfer_cells", d("assess_engine_transfer_cells_total"))
	m.set("colstore.blocks_pruned", d("assess_store_pruned_total"))
	m.set("colstore.blocks_skipped", d("assess_store_lazy_skipped_total"))
	m.set("colstore.blocks_gathered", d("assess_store_lazy_gather_total"))
	m.set("colstore.decode_mb", d("assess_store_decode_bytes_sum")/(1<<20))
	m.set("colstore.compactions", d("assess_store_compactions_total"))
	m.set("dist.fanouts", d("assess_dist_fanouts_total"))
	m.set("dist.shards_pruned", d("assess_dist_shards_pruned_total"))
	m.set("dist.redispatches", d("assess_dist_redispatches_total"))
	m.set("dist.local_fallbacks", d("assess_dist_local_fallbacks_total"))
}
