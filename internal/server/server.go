// Package server exposes a session over HTTP/JSON for interactive
// analysis: submit assess statements, explain plans, validate,
// complete partial statements, and inspect the catalog. All handlers are
// stateless wrappers around a core.Session.
//
// Observability: every request gets an X-Request-Id (accepted from the
// client or generated), structured slog request logging, Prometheus
// metrics on GET /metrics, an enriched GET /stats, per-query span trees
// on ?trace=1, and a configurable slow-query log.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"time"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/sched"
	"github.com/assess-olap/assess/internal/semantic"
)

// Server serves one session.
type Server struct {
	session      *core.Session
	mux          *http.ServeMux
	handler      http.Handler
	logger       *slog.Logger
	reg          *obsv.Registry // this server's series; obsv.Default must not refer to the session
	slow         *obsv.SlowLog
	admission    *sched.Admission
	tenantHeader string
	// Body metrics of the two result endpoints, resolved once so the
	// request path does no registry lookup.
	assessEgress, queryEgress egressMetrics
	writeErrors               *obsv.Counter
	// Replies of /assess the cache took part in, by how their body was
	// produced, and the rows of /assess bodies copied from a base.
	bodyServed, bodyFilled, bodySkipped, bodyReused *obsv.Counter
	rowsReused                                      *obsv.Counter
}

// egressMetrics are the per-endpoint series of streamed result bodies.
type egressMetrics struct {
	encodeSeconds *obsv.Histogram
	responseBytes *obsv.Histogram
	// Bodies encoded, by who formatted them: the handler goroutine
	// alone, or workers beside it; and the rows formatted.
	inline, parallel *obsv.Counter
	rowsFormatted    *obsv.Counter
}

// encodeRows is the counter of result rows written into bodies, by
// endpoint and source: formatted from the result's columns, or copied from
// the base the body was encoded against.
func encodeRows(reg *obsv.Registry, endpoint, source string) *obsv.Counter {
	return reg.Counter("assess_server_encode_rows_total",
		"Result rows written into bodies, by endpoint and source: formatted from the result's columns, or base (/assess only: copied from the rows of a base the cache kept, their cell unchanged). Bodies served from a cache entry's kept rows write none.",
		"endpoint", endpoint, "source", source)
}

func newEgressMetrics(reg *obsv.Registry, endpoint string) egressMetrics {
	bodies := func(mode string) *obsv.Counter {
		return reg.Counter("assess_server_encode_bodies_total",
			"Result bodies encoded, by endpoint and mode: inline (formatted by the handler goroutine) or parallel (formatted by the statement's workers, written by the handler). Bodies served from a cache entry's kept rows are not encoded.",
			"endpoint", endpoint, "mode", mode)
	}
	return egressMetrics{
		encodeSeconds: reg.Histogram("assess_server_encode_seconds",
			"Time to encode a result body and write it to the client, by endpoint.", "endpoint", endpoint),
		responseBytes: reg.ByteHistogram("assess_server_response_bytes",
			"Result body size, by endpoint.", "endpoint", endpoint),
		inline:        bodies("inline"),
		parallel:      bodies("parallel"),
		rowsFormatted: encodeRows(reg, endpoint, "formatted"),
	}
}

// encoded counts a body that workers goroutines formatted, and the rows
// of it they formatted; none did when it was written from rows kept with
// a cache entry.
func (m egressMetrics) encoded(workers, formatted int) {
	m.rowsFormatted.Add(int64(formatted))
	switch {
	case workers > 1:
		m.parallel.Inc()
	case workers == 1:
		m.inline.Inc()
	}
}

// DefaultTenantHeader identifies the tenant for admission fairness when
// WithAdmission does not override it.
const DefaultTenantHeader = "X-Tenant"

// Option configures a Server.
type Option func(*Server)

// WithLogger enables structured request logging (one slog line per
// request, carrying the request ID).
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.logger = l } }

// WithSlowLog attaches a slow-query log; statements slower than its
// threshold are recorded as JSON lines.
func WithSlowLog(sl *obsv.SlowLog) Option { return func(s *Server) { s.slow = sl } }

// WithAdmission gates /assess and /query behind the admission
// controller: requests acquire an execution slot (queuing with
// per-tenant fairness), and shed requests get a 429 with a Retry-After
// hint. tenantHeader names the header carrying the tenant identity;
// empty selects DefaultTenantHeader, and requests without the header
// share the "default" tenant.
func WithAdmission(adm *sched.Admission, tenantHeader string) Option {
	return func(s *Server) {
		s.admission = adm
		if tenantHeader == "" {
			tenantHeader = DefaultTenantHeader
		}
		s.tenantHeader = tenantHeader
	}
}

// New builds a server over the session.
func New(session *core.Session, opts ...Option) *Server {
	s := &Server{session: session, mux: http.NewServeMux(), reg: obsv.NewRegistry()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("GET /stats", s.stats)
	s.mux.HandleFunc("GET /metrics", s.Metrics)
	s.mux.HandleFunc("GET /cubes", s.cubes)
	s.mux.HandleFunc("POST /assess", s.assess)
	s.mux.HandleFunc("POST /query", s.query)
	s.mux.HandleFunc("POST /explain", s.explain)
	s.mux.HandleFunc("POST /validate", s.validate)
	s.mux.HandleFunc("POST /suggest", s.suggest)
	s.handler = s.observe(s.mux)
	s.registerSessionMetrics()
	return s
}

// registerSessionMetrics publishes the server's series: egress, and the
// session's cache counters and catalog as scrape-time funcs.
func (s *Server) registerSessionMetrics() {
	s.assessEgress = newEgressMetrics(s.reg, "/assess")
	s.queryEgress = newEgressMetrics(s.reg, "/query")
	s.writeErrors = s.reg.Counter("assess_server_write_errors_total",
		"Result bodies abandoned because the client connection failed mid-write or the request was cancelled.")
	bodyOutcome := func(outcome string) *obsv.Counter {
		return s.reg.Counter("assess_cache_body_total",
			"Replies of /assess the cache took part in, by how the body was produced. Hits: served from bytes kept with the entry, filled (encoded from the cube and left with the entry), or skipped (encoded from the cube, not kept). Reused: encoded against a base, the rows an earlier reply of the statement wrote, which the cache keeps for a statement every append overlaps (a miss whose probe found the base stale, or a hit on it): a row whose cell did not change is copied, not formatted.",
			"outcome", outcome)
	}
	s.bodyServed, s.bodyFilled, s.bodySkipped = bodyOutcome("served"), bodyOutcome("filled"), bodyOutcome("skipped")
	s.bodyReused, s.rowsReused = bodyOutcome("reused"), encodeRows(s.reg, "/assess", "base")
	s.reg.GaugeFunc("assess_catalog_generation",
		"Catalog generation: registrations, materializations and registry changes, plus every fact's appended rows.",
		func() float64 { return float64(s.session.Generation()) })
	s.reg.GaugeFunc("assess_catalog_views",
		"Materialized views registered.",
		func() float64 { return float64(s.session.Engine.Views()) })
	cacheStat := func(read func(qcache.Stats) int64) func() float64 {
		return func() float64 {
			st, ok := s.session.CacheStats()
			if !ok {
				return 0
			}
			return float64(read(st))
		}
	}
	s.reg.CounterFunc("assess_cache_hits_total", "Query-result cache hits.",
		cacheStat(func(st qcache.Stats) int64 { return st.Hits }))
	s.reg.CounterFunc("assess_cache_misses_total", "Query-result cache misses.",
		cacheStat(func(st qcache.Stats) int64 { return st.Misses }))
	s.reg.CounterFunc("assess_cache_evictions_total", "Query-result cache evictions.",
		cacheStat(func(st qcache.Stats) int64 { return st.Evictions }))
	s.reg.CounterFunc("assess_cache_rejected_total", "Results not cached because one alone exceeds the cache budget.",
		cacheStat(func(st qcache.Stats) int64 { return st.Rejected }))
	s.reg.CounterFunc("assess_cache_deferred_total", "Results not cached because their statement had not been evaluated before at the catalog generation.",
		cacheStat(func(st qcache.Stats) int64 { return st.Deferred }))
	s.reg.CounterFunc("assess_cache_kept_total", "Query-result cache hits on an entry that outlived an append to a fact it read, because the append added no row to what it read.",
		cacheStat(func(st qcache.Stats) int64 { return st.Kept }))
	s.reg.GaugeFunc("assess_cache_body_bytes", "Encoded bodies kept with cache entries, a part of assess_cache_bytes.",
		cacheStat(func(st qcache.Stats) int64 { return st.BodyBytes }))
	s.reg.GaugeFunc("assess_cache_entries", "Query-result cache resident entries.",
		cacheStat(func(st qcache.Stats) int64 { return st.Entries }))
	s.reg.GaugeFunc("assess_cache_bytes", "Query-result cache resident bytes, results and bodies.",
		cacheStat(func(st qcache.Stats) int64 { return st.Bytes }))
}

// Handler returns the HTTP handler (mux wrapped in the request-ID,
// logging, and metrics middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// request is the common body of the POST endpoints.
type request struct {
	// Statement is the assess statement (possibly partial for /suggest).
	Statement string `json:"statement"`
	// Plan selects the strategy: "", "best", "np", "jop", "pop".
	Plan string `json:"plan,omitempty"`
	// Max bounds /suggest results.
	Max int `json:"max,omitempty"`
	// Trace requests a span tree on the response (same as ?trace=1).
	Trace bool `json:"trace,omitempty"`
}

// assessHeader is every member of an /assess body except the last,
// "rows": one object per cell with its coordinate, measure, benchmark,
// comparison (NaN and ±Inf as null) and label, streamed from the result's
// columns by the encoder.
type assessHeader struct {
	Strategy  string             `json:"strategy"`
	Cells     int                `json:"cells"`
	TotalMs   float64            `json:"totalMs"`
	Breakdown map[string]float64 `json:"breakdownMs"`
	// Cache is "hit" or "miss" when the session has a query-result
	// cache, omitted when caching is off.
	Cache string `json:"cache,omitempty"`
	// Partial marks a degraded distributed result: one or more shards
	// were unreachable and the coordinator's policy is "partial".
	// DegradedShards lists them as "FACT/shard" tags.
	Partial        bool     `json:"partial,omitempty"`
	DegradedShards []string `json:"degradedShards,omitempty"`
	// Trace is the span tree of this request (?trace=1 only).
	Trace *obsv.SpanJSON `json:"trace,omitempty"`
}

type errorResponse struct {
	Error     string `json:"error"`
	Kind      string `json:"kind"` // "syntax", "semantic", or "internal"
	RequestID string `json:"requestId,omitempty"`
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type cubeInfo struct {
	Name        string              `json:"name"`
	Rows        int                 `json:"rows"`
	Hierarchies map[string][]string `json:"hierarchies"`
	Measures    []string            `json:"measures"`
}

func (s *Server) cubes(w http.ResponseWriter, r *http.Request) {
	var out []cubeInfo
	for _, name := range s.session.Engine.Facts() {
		f, _ := s.session.Engine.Fact(name)
		info := cubeInfo{Name: name, Rows: f.Rows(), Hierarchies: map[string][]string{}}
		for _, h := range f.Schema.Hiers {
			info.Hierarchies[h.Name()] = h.Levels()
		}
		for _, m := range f.Schema.Measures {
			info.Measures = append(info.Measures, m.Name)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// Metrics renders the process's series and then the server's own in
// Prometheus text exposition format: GET /metrics.
func (s *Server) Metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obsv.Default.WritePrometheus(w)
	s.reg.WritePrometheus(w)
}

// admit acquires an execution slot when admission control is enabled.
// It returns a release function (a no-op when admission is off) the
// handler must call with the request's service latency, and reports
// whether the request may proceed; shed requests get a 429 with a
// Retry-After hint and kind "overload" before admit returns false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(time.Duration), bool) {
	if s.admission == nil {
		return func(time.Duration) {}, true
	}
	tenant := r.Header.Get(s.tenantHeader)
	if tenant == "" {
		tenant = "default"
	}
	release, err := s.admission.Acquire(r.Context(), tenant)
	if err == nil {
		return release, true
	}
	var rej *sched.Rejection
	if errors.As(err, &rej) {
		secs := int(math.Ceil(rej.RetryAfter.Seconds()))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:     rej.Error(),
			Kind:      "overload",
			RequestID: requestID(r.Context()),
		})
		return nil, false
	}
	// Context cancelled while queued: the client is gone.
	writeError(w, r, statusFor(err), err)
	return nil, false
}

func (s *Server) assess(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r)
	if !ok {
		return
	}
	strategy, best, err := parsePlan(req.Plan)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	ctx, finish := withTrace(r, req.Trace)
	ctx, note := s.trackPartial(ctx)
	ctx, body := s.session.TrackBody(ctx)
	start := time.Now()
	defer func() { release(time.Since(start)) }()
	var (
		res   *exec.Result
		state core.CacheState
	)
	if best {
		res, state, err = s.session.ExecTrackedContext(ctx, req.Statement)
	} else {
		res, state, err = s.session.ExecWithTrackedContext(ctx, req.Statement, strategy)
	}
	if err != nil {
		s.fail(w, r, "/assess", req.Statement, start, err)
		return
	}
	trace := finish()
	if res == nil {
		// A declare statement registers a labeler and yields no cube.
		writeJSON(w, http.StatusOK, map[string]bool{"declared": true})
		return
	}
	head := assessHeader{
		Strategy:  res.Plan.Strategy.String(),
		TotalMs:   float64(res.Total) / float64(time.Millisecond),
		Breakdown: map[string]float64{},
		Cache:     string(state),
		Trace:     trace,
	}
	if res.Cube != nil {
		head.Cells = res.Cube.Len()
	} else {
		head.Cells = body.Cells() // a hit on an entry that keeps rows, not the cube
	}
	if note != nil && note.Partial() {
		head.Partial = true
		head.DegradedShards = note.DegradedShards()
	}
	for p, d := range res.Breakdown {
		if d > 0 {
			head.Breakdown[plan.Phase(p).String()] = float64(d) / float64(time.Millisecond)
		}
	}
	// A hit is written from the rows its cache entry keeps, when it has
	// them. Any other reply streams from the cube, copying the rows of a
	// base the cache handed over where their cell did not change. A hit on
	// an entry that has room for rows copies what it streams after the
	// header and, once complete, hands that to the entry; a base this
	// evaluation stored is handed where each row lies instead.
	t0 := time.Now()
	rows, room := body.Rows()
	var (
		send    func(w io.Writer, head []byte) (int64, error)
		workers int // that encoded this body; 0 when it is written from kept rows
		// Rows of the body copied from a base, and formatted.
		reused, formatted int
	)
	if rows != nil {
		s.bodyServed.Inc()
		send = func(w io.Writer, head []byte) (int64, error) { return writeRetained(w, head, rows) }
	} else {
		cols, err := res.Columns()
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		cells := len(cols.Measure)
		bs := baseOf(body)
		var from []int32
		from, reused = bs.match(cols)
		formatted = cells - reused
		var (
			lens []int32
			next *baseCopy
		)
		if body.Based() {
			lens = make([]int32, cells)
			next = newBaseCopy(cols, bs, from, lens)
		}
		b := reuseBody(cols, bs, from, lens)
		if next != nil {
			b.sent = next.sent
		}
		workers = b.workers(s.session.Engine.Parallelism())
		send = func(w io.Writer, head []byte) (int64, error) {
			cp := &rowsCopy{w: w, skip: len(head) - 1, room: room, rows: cells}
			n, err := encodeBody(r.Context(), cp, head, b, workers)
			kept := false
			switch {
			case err != nil:
			case next != nil:
				if nb := next.done(); nb != nil {
					body.KeepBase(nb)
				}
			case room > 0:
				kept = body.Keep(cp.bytes())
			}
			switch {
			case from != nil:
				s.bodyReused.Inc()
			case state != qcache.StateHit:
			case kept:
				s.bodyFilled.Inc()
			default:
				s.bodySkipped.Inc()
			}
			return n, err
		}
	}
	encode, n := s.writeResult(w, r, s.assessEgress, t0, head, send)
	s.assessEgress.encoded(workers, formatted)
	s.rowsReused.Add(int64(reused))
	s.slow.Log(time.Since(start), obsv.SlowEntry{
		RequestID:     requestID(r.Context()),
		Endpoint:      "/assess",
		Statement:     req.Statement,
		Strategy:      head.Strategy,
		Cache:         head.Cache,
		Cells:         head.Cells,
		EncodeMs:      float64(encode) / float64(time.Millisecond),
		EncodeWorkers: workers,
		RowsReused:    reused,
		RowsFormatted: formatted,
		Bytes:         n,
	})
}

// writeResult sends a 200 whose body is head — marshalled here — and what
// send writes after it: the "rows" the encoder streams (encodeBody) or
// bytes kept from an earlier reply (writeRetained). It records the time
// since t0, when the caller began producing the body, and the body's
// size, and returns both for the slow-query log. A client that went away
// mid-body counts as a write error and ends the encode early.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, m egressMetrics, t0 time.Time, head any,
	send func(w io.Writer, head []byte) (int64, error)) (d time.Duration, n int64) {
	buf, err := json.Marshal(head)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return 0, 0
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	n, err = send(w, buf)
	if err != nil {
		s.writeErrors.Inc()
	}
	d = time.Since(t0)
	m.encodeSeconds.Observe(d.Seconds())
	m.responseBytes.Observe(float64(n))
	return d, n
}

// queryHeader is every member of a /query body except the last, "rows":
// one object per cell of the derived cube, keyed by level and measure
// name.
type queryHeader struct {
	Levels   []string `json:"levels"`
	Measures []string `json:"measures"`
	Cells    int      `json:"cells"`
	TotalMs  float64  `json:"totalMs"`
	// Partial / DegradedShards mirror assessHeader: set when shards
	// were lost and the coordinator served a degraded result.
	Partial        bool           `json:"partial,omitempty"`
	DegradedShards []string       `json:"degradedShards,omitempty"`
	Trace          *obsv.SpanJSON `json:"trace,omitempty"`
}

// queryHead describes the derived cube: the header of its body and the
// dictionary of each coordinate position. Levels is never nil, so a
// query without group-by levels still says "levels":[].
func queryHead(qr *core.QueryResult, trace *obsv.SpanJSON) (queryHeader, []*mdm.Dict) {
	c := qr.Cube
	head := queryHeader{
		Levels:   make([]string, len(c.Group)),
		Measures: c.Names,
		Cells:    c.Len(),
		TotalMs:  float64(qr.Total) / float64(time.Millisecond),
		Trace:    trace,
	}
	dicts := make([]*mdm.Dict, len(c.Group))
	for p, g := range c.Group {
		head.Levels[p] = c.Schema.LevelName(g)
		dicts[p] = c.Schema.Dict(g)
	}
	return head, dicts
}

// trackPartial wraps ctx with a dist.PartialNote when the session runs
// a distributed coordinator, so handlers can annotate degraded results
// under the partial policy. Returns a nil note otherwise.
func (s *Server) trackPartial(ctx context.Context) (context.Context, *dist.PartialNote) {
	if s.session.Distributed() == nil {
		return ctx, nil
	}
	return dist.TrackPartial(ctx)
}

// query evaluates a plain cube query (get statement).
func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	ctx, finish := withTrace(r, req.Trace)
	ctx, note := s.trackPartial(ctx)
	start := time.Now()
	defer func() { release(time.Since(start)) }()
	qr, err := s.session.QueryContext(ctx, req.Statement)
	if err != nil {
		s.fail(w, r, "/query", req.Statement, start, err)
		return
	}
	c := qr.Cube
	head, dicts := queryHead(qr, finish())
	if note != nil && note.Partial() {
		head.Partial = true
		head.DegradedShards = note.DegradedShards()
	}
	b := queryBody(queryFields(head.Levels, c.Names, c.Cols), dicts, c.Keys, c.Len())
	workers := b.workers(s.session.Engine.Parallelism())
	encode, n := s.writeResult(w, r, s.queryEgress, time.Now(), head, func(w io.Writer, head []byte) (int64, error) {
		return encodeBody(r.Context(), w, head, b, workers)
	})
	s.queryEgress.encoded(workers, head.Cells)
	s.slow.Log(time.Since(start), obsv.SlowEntry{
		RequestID:     requestID(r.Context()),
		Endpoint:      "/query",
		Statement:     req.Statement,
		Cells:         head.Cells,
		EncodeMs:      float64(encode) / float64(time.Millisecond),
		EncodeWorkers: workers,
		RowsFormatted: head.Cells,
		Bytes:         n,
	})
}

func (s *Server) explain(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r)
	if !ok {
		return
	}
	strategy, best, err := parsePlan(req.Plan)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, finish := withTrace(r, req.Trace)
	var p *plan.Plan
	if best {
		p, err = s.session.PrepareContext(ctx, req.Statement)
	} else {
		p, err = s.session.PrepareWithContext(ctx, req.Statement, strategy)
	}
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	resp := map[string]any{
		"strategy": p.Strategy.String(),
		"plan":     p.Explain(),
	}
	if state := s.session.CacheProbe(p); state != "" {
		// Whether executing this statement right now would hit the cache.
		resp["cache"] = string(state)
	}
	if trace := finish(); trace != nil {
		resp["trace"] = trace
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the body of GET /stats.
type statsResponse struct {
	// Cache holds the query-result cache counters, null when caching is
	// off.
	Cache *qcache.Stats `json:"cache"`
	Cubes []string      `json:"cubes"`
	// ViewStats is the aggregate-navigator section: every materialized
	// view (explicit and auto-admitted) with cells, bytes, and hit
	// counts, plus the admission budget accounting.
	ViewStats engine.ViewStats `json:"viewStats"`
	// Storage describes each registered fact table's backend: resident
	// or segment, with segment/WAL/compaction counters for the latter.
	Storage []engine.FactStorage `json:"storage"`
	// Scheduler is the admission-control section, null when admission is
	// off.
	Scheduler *schedStats `json:"scheduler,omitempty"`
	// Dist is the scatter-gather coordinator section — per-table shard
	// snapshots (targets, generation, scans, errors, redispatches,
	// fallbacks) — null when the session is not distributed.
	Dist *dist.Stats `json:"dist,omitempty"`
	// Metrics is every series of /metrics with its current value
	// (histograms report count/mean/p50/p95/p99): the catalog generation
	// and view count, goroutines, heap and uptime among them.
	Metrics []obsv.Snapshot `json:"metrics"`
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Cubes:     s.session.Engine.Facts(),
		ViewStats: s.session.ViewStats(),
		Storage:   s.session.Engine.StorageStats(),
		Metrics:   append(obsv.Default.Snapshots(), s.reg.Snapshots()...),
	}
	if st, ok := s.session.CacheStats(); ok {
		resp.Cache = &st
	}
	if s.admission != nil {
		as := s.admission.Stats()
		resp.Scheduler = &schedStats{Admission: &as}
	}
	if ds, ok := s.session.DistStats(); ok {
		resp.Dist = &ds
	}
	writeJSON(w, http.StatusOK, resp)
}

// schedStats is the scheduler section of /stats.
type schedStats struct {
	Admission *sched.AdmissionStats `json:"admission,omitempty"`
}

func (s *Server) validate(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r)
	if !ok {
		return
	}
	if err := s.session.Validate(req.Statement); err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"valid": true})
}

func (s *Server) suggest(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r)
	if !ok {
		return
	}
	sugs, err := s.session.Suggest(req.Statement, req.Max)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sugs)
}

// maxBodyBytes bounds POST bodies (1 MiB); larger requests get a 413.
const maxBodyBytes = 1 << 20

func readRequest(w http.ResponseWriter, r *http.Request) (request, bool) {
	var req request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return req, false
		}
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
		return req, false
	}
	if req.Statement == "" {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing statement"))
		return req, false
	}
	return req, true
}

// parsePlan resolves a request's plan name: "best" (or none) leaves the
// choice to the session's rule, the others force a strategy.
func parsePlan(name string) (strategy plan.Strategy, best bool, err error) {
	switch name {
	case "", "best":
		return 0, true, nil
	case "np", "NP":
		return plan.NP, false, nil
	case "jop", "JOP":
		return plan.JOP, false, nil
	case "pop", "POP":
		return plan.POP, false, nil
	}
	return 0, false, fmt.Errorf("unknown plan %q (want best, np, jop, or pop)", name)
}

// statusFor maps statement errors to 400, shard unavailability under
// the fail policy to 503, and everything else to 422.
func statusFor(err error) int {
	var syn *parser.SyntaxError
	var sem *semantic.BindError
	if errors.As(err, &syn) || errors.As(err, &sem) {
		return http.StatusBadRequest
	}
	var unavail *dist.Unavailable
	if errors.As(err, &unavail) {
		return http.StatusServiceUnavailable
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail answers a statement that failed. The client of one that panicked
// gets the panic's value; its stack goes to the server's log, as net/http
// does with a handler's own panic, and to the slow log whatever the
// threshold.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, endpoint, stmt string, start time.Time, err error) {
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		id := requestID(r.Context())
		slog.Error("query panicked", "requestId", id, "error", err, "stack", string(pe.Stack))
		s.slow.Log(time.Since(start), obsv.SlowEntry{
			RequestID: id,
			Endpoint:  endpoint,
			Statement: stmt,
			Error:     err.Error(),
			Stack:     string(pe.Stack),
		})
	}
	writeError(w, r, statusFor(err), err)
}

// writeError renders the consistent error body: message, error kind, and
// the request ID so the failure can be found in the logs.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	kind := "internal"
	var syn *parser.SyntaxError
	var sem *semantic.BindError
	switch {
	case errors.As(err, &syn):
		kind = "syntax"
	case errors.As(err, &sem):
		kind = "semantic"
	}
	var unavail *dist.Unavailable
	if errors.As(err, &unavail) {
		kind = "unavailable"
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind, RequestID: requestID(r.Context())})
}
