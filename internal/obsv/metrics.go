// Package obsv is the observability subsystem: a process-wide metrics
// registry (atomic counters, gauges, and log-bucketed latency histograms
// rendered in Prometheus text format) and a per-query span tree threaded
// through context.Context. Both halves are stdlib-only and designed for
// the hot path: metric instances are plain atomics once created, and
// tracing is zero-allocation when no trace is attached to the context.
//
// The engine, exec, plan, qcache, core and process series live in the
// Default registry and close over no session. A server keeps the series
// of its own session in a registry it owns, writes Default and then that
// registry on GET /metrics and the enriched GET /stats, and attaches span
// trees to responses when the client asks for them (?trace=1).
package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry, like expvar's global namespace.
// Library layers and the process gauges publish here; servers scrape it.
// Nothing registered here may refer to a session, so that a dropped one
// can be collected.
var Default = NewRegistry()

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one (family, label set) time series.
type series struct {
	labels  string // rendered {k="v",...} suffix, "" when unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // backs Func-registered series
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	mu     sync.Mutex
	series map[string]*series
	order  []string // label signatures in registration order
}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; getting an already registered
// series is a read-locked map lookup, so holding the returned instance
// is still preferred on hot paths.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSignature renders alternating key/value pairs as a Prometheus
// label suffix. Pairs are sorted by key so the same set in any order
// names the same series.
func labelSignature(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obsv: labels must be key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p.k, escapeLabel(p.v))
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// familyFor finds or creates the named family, checking kind agreement.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obsv: metric %s registered as %s and %s", name, f.kind, kind))
		}
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obsv: metric %s registered as %s and %s", name, f.kind, kind))
		}
		return f
	}
	f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// seriesFor finds or creates the series for the label set, filling the
// metric instance with mk on first creation.
func (f *family) seriesFor(kv []string, mk func(*series)) *series {
	sig := labelSignature(kv)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s
	}
	s := &series{labels: sig}
	mk(s)
	f.series[sig] = s
	f.order = append(f.order, sig)
	return s
}

// Counter returns (registering on first use) the counter series for the
// name and alternating label key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.familyFor(name, help, kindCounter).seriesFor(labels, func(s *series) {
		s.counter = &Counter{}
	})
	return s.counter
}

// Gauge returns (registering on first use) the gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.familyFor(name, help, kindGauge).seriesFor(labels, func(s *series) {
		s.gauge = &Gauge{}
	})
	return s.gauge
}

// Histogram returns (registering on first use) the latency histogram
// series: observations in seconds, buckets from 1 µs to ~64 s.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.histogram(name, help, 1, labels)
}

// ByteHistogram returns (registering on first use) a histogram series
// for sizes: observations in bytes, buckets from 64 B to ~4 GiB.
func (r *Registry) ByteHistogram(name, help string, labels ...string) *Histogram {
	return r.histogram(name, help, byteScale, labels)
}

func (r *Registry) histogram(name, help string, scale float64, labels []string) *Histogram {
	s := r.familyFor(name, help, kindHistogram).seriesFor(labels, func(s *series) {
		s.hist = newHistogram(scale)
	})
	return s.hist
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time — for values owned elsewhere, like cache entry counts or
// runtime stats.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, kindGauge, fn, labels)
}

// CounterFunc registers a counter series read from fn at scrape time.
// fn must be monotonic (e.g. a cumulative hit count kept by another
// subsystem).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, kindCounter, fn, labels)
}

// registerFunc adds a Func series. Its reader is fixed for the life of
// the registry, so registering the same series twice panics, as a kind
// mismatch does.
func (r *Registry) registerFunc(name, help string, kind metricKind, fn func() float64, labels []string) {
	created := false
	s := r.familyFor(name, help, kind).seriesFor(labels, func(s *series) { s.fn, created = fn, true })
	if !created {
		panic(fmt.Sprintf("obsv: metric %s%s registered twice", name, s.labels))
	}
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	sers := make([]*series, 0, len(f.order))
	for _, sig := range f.order {
		sers = append(sers, f.series[sig])
	}
	f.mu.Unlock()
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range sers {
		switch {
		case s.counter != nil:
			fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		case s.gauge != nil:
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
		case s.fn != nil:
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
		case s.hist != nil:
			s.hist.write(w, f.name, s.labels)
		}
	}
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot is a point-in-time reading of one series, used by the
// enriched GET /stats JSON body.
type Snapshot struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
	// Histogram-only estimates.
	Count int64    `json:"count,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P95   *float64 `json:"p95,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
}

// Snapshots reads every series. Histograms report their observation
// count, mean (as Value), and p50/p95/p99 estimates.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	var out []Snapshot
	for _, f := range fams {
		f.mu.Lock()
		sers := make([]*series, 0, len(f.order))
		for _, sig := range f.order {
			sers = append(sers, f.series[sig])
		}
		f.mu.Unlock()
		for _, s := range sers {
			snap := Snapshot{Name: f.name, Labels: s.labels, Kind: string(f.kind)}
			switch {
			case s.counter != nil:
				snap.Value = float64(s.counter.Value())
			case s.gauge != nil:
				snap.Value = s.gauge.Value()
			case s.fn != nil:
				snap.Value = s.fn()
			case s.hist != nil:
				count, sum := s.hist.CountSum()
				snap.Count = count
				if count > 0 {
					snap.Value = sum / float64(count)
				}
				p50, p95, p99 := s.hist.Quantile(0.50), s.hist.Quantile(0.95), s.hist.Quantile(0.99)
				snap.P50, snap.P95, snap.P99 = &p50, &p95, &p99
			}
			out = append(out, snap)
		}
	}
	return out
}
