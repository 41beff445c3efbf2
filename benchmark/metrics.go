package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/assess-olap/assess/internal/loadtest"
	"github.com/assess-olap/assess/internal/obsv"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below are the
// benchmark's vocabulary and must agree with BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, what a caller of the
// system sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"stmt_p50_ms", "ms"},
	{"stmt_p95_ms", "ms"},
	{"stmts_per_s", "1/s"},
	{"cpu_ms_per_stmt", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of the traced run. Times are medians per
// traced statement, counts are deltas over the timed phase.
var perLayer = []metricDef{
	{"net.self_ms", "ms"},
	{"server.handler_ms", "ms"}, {"server.self_ms", "ms"}, {"server.resp_kb", "KiB"},
	{"parser.parse_us", "us"}, {"semantic.bind_us", "us"}, {"plan.build_us", "us"},
	{"qcache.probe_us", "us"}, {"qcache.hit_ratio", "ratio"}, {"qcache.evictions", "count"},
	{"sched.admitted", "count"}, {"sched.rejected", "count"}, {"sched.admit_wait_us", "us"},
	{"exec.total_ms", "ms"}, {"exec.get_ms", "ms"}, {"exec.transform_ms", "ms"},
	{"exec.join_ms", "ms"}, {"exec.compare_ms", "ms"}, {"exec.label_ms", "ms"},
	{"intent.constant_p50_ms", "ms"}, {"intent.external_p50_ms", "ms"},
	{"intent.sibling_p50_ms", "ms"}, {"intent.past_p50_ms", "ms"},
	{"engine.self_ms", "ms"}, {"engine.scans", "count"}, {"engine.rows_scanned", "count"},
	{"engine.kernel_dense", "count"}, {"engine.kernel_hash", "count"}, {"engine.morsels", "count"},
	{"engine.view_hits", "count"}, {"engine.view_misses", "count"}, {"engine.transfer_cells", "count"},
	{"colstore.snapshot_us", "us"}, {"colstore.block_busy_ms", "ms"},
	{"colstore.blocks_total", "count"}, {"colstore.blocks_pruned", "count"},
	{"colstore.blocks_skipped", "count"}, {"colstore.blocks_gathered", "count"},
	{"colstore.decode_mb", "MiB"}, {"colstore.bytes_per_row", "B"},
	{"colstore.build_rows_per_s", "1/s"}, {"colstore.open_ms", "ms"},
	{"colstore.wal_append_us_per_row", "us"}, {"colstore.compactions", "count"},
	{"append_p50_ms", "ms"},
	{"dist.scan_ms", "ms"}, {"dist.shard_busy_ms", "ms"}, {"dist.shard_max_ms", "ms"},
	{"dist.self_ms", "ms"}, {"dist.fanouts", "count"}, {"dist.shards_pruned", "count"},
	{"dist.redispatches", "count"}, {"dist.local_fallbacks", "count"},
	{"proc.gc_cycles", "count"}, {"proc.heap_mb", "MiB"}, {"interactive.within_100ms_ratio", "ratio"},
	{"trace.coverage", "ratio"}, {"trace.overhead_ratio", "ratio"},
}

// metricSet collects values against a definition list and refuses
// names outside it, so the output cannot drift from the vocabulary.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the vocabulary")
}

// complete fills every metric not set with zero: a layer the workload
// bypasses reports 0, and predictions such as "colstore counts are 0 on
// resident workloads" read straight off the output.
func (m *metricSet) complete() map[string]metric {
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			m.values[d.name] = metric{Unit: d.unit}
		}
	}
	return m.values
}

// percentile is the p-th percentile of the durations in milliseconds,
// by the definition internal/loadtest uses for the load harness.
func percentile(lats []time.Duration, p float64) float64 {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return millis(loadtest.Result{Latencies: sorted}.Percentile(p))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of plain numbers (per-statement span sums).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// counters reads every series of the default obsv registry: the numbers
// GET /metrics serves. Histograms contribute name_count and name_sum.
type counters map[string]float64

func readCounters() counters {
	c := make(counters)
	for _, s := range obsv.Default.Snapshots() {
		key := s.Name + s.Labels
		if s.Kind == "histogram" {
			c[key+"_count"] = float64(s.Count)
			c[key+"_sum"] = s.Value * float64(s.Count)
			continue
		}
		c[key] = s.Value
	}
	return c
}

// delta is after[key] - before[key] summed over the given series.
func (before counters) delta(after counters, keys ...string) float64 {
	var d float64
	for _, k := range keys {
		d += after[k] - before[k]
	}
	return d
}

// cpuTime is the process's user+system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSS is VmHWM, the process's peak resident set, in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func heapMB() (float64, uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), ms.NumGC
}
