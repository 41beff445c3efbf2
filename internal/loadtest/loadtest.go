// Package loadtest is the load harness for the serving layer: a
// closed-loop generator (N workers issuing requests back-to-back — the
// classic concurrency-scaling experiment) and an open-loop generator
// (Poisson arrivals at a target rate, immune to coordinated omission),
// both over a seeded statement mix. Results carry the latency
// distribution (p50/p95/p99/max), achieved throughput, and shed/error
// counts, and render as latency-vs-scale tables. The harness drives any
// Target: an in-process http.Handler (used by the short-mode tests and
// benchmarks) or a live server over HTTP (cmd/loadgen).
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/assess-olap/assess/internal/server"
)

// ErrShed marks a request rejected by admission control (HTTP 429).
// Shed requests are tallied separately from errors: under deliberate
// overload they are the system working as designed.
var ErrShed = errors.New("loadtest: request shed (429)")

// Request is one unit of offered load.
type Request struct {
	// Path is the endpoint ("/query" or "/assess").
	Path string
	// Statement is the request body's statement.
	Statement string
	// Tenant is sent in the tenant header when non-empty.
	Tenant string
}

// Target executes requests.
type Target interface {
	Do(ctx context.Context, req Request) error
}

// Mix is a seeded statement mix: each draw picks a statement and a
// tenant uniformly. The same seed replays the same sequence.
type Mix struct {
	Path       string
	Statements []string
	// Selective statements are drawn with probability Selectivity
	// instead of the base Statements: narrow single-member predicates
	// that exercise the store's late-materialization path (predicate-
	// first evaluation, bitmap skip, sparse gather decode). Zero
	// Selectivity or an empty Selective list disables the split.
	Selective   []string
	Selectivity float64
	Tenants     []string
}

func (m Mix) draw(rng *rand.Rand) Request {
	stmts := m.Statements
	if len(m.Selective) > 0 && m.Selectivity > 0 && rng.Float64() < m.Selectivity {
		stmts = m.Selective
	}
	req := Request{Path: m.Path, Statement: stmts[rng.Intn(len(stmts))]}
	if len(m.Tenants) > 0 {
		req.Tenant = m.Tenants[rng.Intn(len(m.Tenants))]
	}
	return req
}

// DefaultSalesMix is the query mix used by tests and scripts against
// the built-in sales dataset: distinct group-bys and predicates, so the
// requests aggregate genuinely different cubes.
func DefaultSalesMix() Mix {
	return Mix{
		Path: "/query",
		Statements: []string{
			`with SALES by product get quantity`,
			`with SALES by country get quantity`,
			`with SALES by month get quantity`,
			`with SALES by product, country get quantity`,
			`with SALES by product, month get quantity`,
			`with SALES for country = 'Italy' by product get quantity`,
			`with SALES for country = 'France' by month get quantity`,
			`with SALES by country, month get quantity`,
		},
		// Filtered on but not grouped by, so a segment-store backend
		// answers these without ever materializing the filter column.
		Selective: []string{
			`with SALES for product = 'gouda' by month get quantity`,
			`with SALES for product = 'chocolate' by country get quantity`,
			`with SALES for store = 'CoopCity' by month get quantity`,
		},
		Tenants: []string{"alpha", "beta", "gamma"},
	}
}

// Result is one generator run's outcome.
type Result struct {
	// Label identifies the run in tables ("closed w=8", "open 200qps").
	Label string
	// Requests completed (including shed and failed).
	Requests int
	// Shed counts 429 responses.
	Shed int
	// Errors counts non-shed failures.
	Errors int
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// Latencies of successful requests, sorted ascending.
	Latencies []time.Duration
}

// Throughput is successful requests per second.
func (r Result) Throughput() float64 {
	ok := r.Requests - r.Shed - r.Errors
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(ok) / r.Elapsed.Seconds()
}

// Percentile returns the p-th (0..100) latency; zero when empty.
func (r Result) Percentile(p float64) time.Duration {
	n := len(r.Latencies)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return r.Latencies[idx]
}

func (r *Result) record(lat time.Duration, err error) {
	r.Requests++
	switch {
	case errors.Is(err, ErrShed):
		r.Shed++
	case err != nil:
		r.Errors++
	default:
		r.Latencies = append(r.Latencies, lat)
	}
}

func (r *Result) finish(elapsed time.Duration) {
	r.Elapsed = elapsed
	sort.Slice(r.Latencies, func(i, j int) bool { return r.Latencies[i] < r.Latencies[j] })
}

// Closed runs the closed-loop experiment: workers goroutines issue
// requests back-to-back until ctx is done or each has sent perWorker
// requests (perWorker <= 0 means until ctx cancellation). Offered load
// tracks service rate, so this measures capacity, not overload.
func Closed(ctx context.Context, t Target, mix Mix, workers, perWorker int, seed int64) Result {
	res := Result{Label: fmt.Sprintf("closed w=%d", workers)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; perWorker <= 0 || i < perWorker; i++ {
				if ctx.Err() != nil {
					return
				}
				req := mix.draw(rng)
				t0 := time.Now()
				err := t.Do(ctx, req)
				lat := time.Since(t0)
				if ctx.Err() != nil && err != nil {
					return // shutdown race, not a request failure
				}
				mu.Lock()
				res.record(lat, err)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.finish(time.Since(start))
	return res
}

// Open runs the open-loop experiment: Poisson arrivals at rate qps for
// the given duration, each served on its own goroutine so queueing at
// the target cannot slow the arrival process (no coordinated omission).
func Open(ctx context.Context, t Target, mix Mix, qps float64, duration time.Duration, seed int64) Result {
	res := Result{Label: fmt.Sprintf("open %gqps", qps)}
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(duration)
	next := start
	for time.Now().Before(deadline) && ctx.Err() == nil {
		// Exponential inter-arrival gap → Poisson process.
		gap := time.Duration(rng.ExpFloat64() / qps * float64(time.Second))
		next = next.Add(gap)
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			break
		}
		req := mix.draw(rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			err := t.Do(ctx, req)
			lat := time.Since(t0)
			if ctx.Err() != nil && err != nil {
				return
			}
			mu.Lock()
			res.record(lat, err)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.finish(time.Since(start))
	return res
}

// Table renders results as a latency-vs-scale table.
func Table(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %6s %6s %9s %9s %9s %9s\n",
		"run", "requests", "ok/s", "shed", "errs", "p50", "p95", "p99", "max")
	for _, r := range results {
		fmt.Fprintf(&b, "%-16s %9d %9.1f %6d %6d %9s %9s %9s %9s\n",
			r.Label, r.Requests, r.Throughput(), r.Shed, r.Errors,
			fmtDur(r.Percentile(50)), fmtDur(r.Percentile(95)),
			fmtDur(r.Percentile(99)), fmtDur(r.Percentile(100)))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// body is the POST payload both targets send.
func body(req Request) ([]byte, error) {
	return json.Marshal(map[string]string{"statement": req.Statement})
}

// setHeaders marks the payload as JSON and names the request's tenant,
// if it has one, under the header admission reads.
func setHeaders(h http.Header, req Request) {
	h.Set("Content-Type", "application/json")
	if req.Tenant != "" {
		h.Set(server.DefaultTenantHeader, req.Tenant)
	}
}

// HandlerTarget drives an in-process http.Handler (server.Handler()),
// skipping the network: the short-mode tests and in-repo experiments
// use it so results reflect scheduler behavior, not loopback sockets.
type HandlerTarget struct {
	Handler http.Handler
}

func (h HandlerTarget) Do(ctx context.Context, req Request) error {
	buf, err := body(req)
	if err != nil {
		return err
	}
	r := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(buf)).WithContext(ctx)
	setHeaders(r.Header, req)
	w := httptest.NewRecorder()
	h.Handler.ServeHTTP(w, r)
	return statusErr(w.Code, w.Body.String())
}

// HTTPTarget drives a live server over HTTP (cmd/loadgen).
type HTTPTarget struct {
	BaseURL string
	Client  *http.Client
}

func (h HTTPTarget) Do(ctx context.Context, req Request) error {
	buf, err := body(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.BaseURL+req.Path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	setHeaders(hr.Header, req)
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	snip, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
	return statusErr(resp.StatusCode, string(snip))
}

// MultiTarget fans requests across several targets round-robin — e.g.
// the coordinators of a distributed deployment, or one coordinator
// listed twice to double per-target concurrency.
type MultiTarget struct {
	Targets []Target
	next    atomic.Uint64
}

func (m *MultiTarget) Do(ctx context.Context, req Request) error {
	t := m.Targets[(m.next.Add(1)-1)%uint64(len(m.Targets))]
	return t.Do(ctx, req)
}

func statusErr(code int, bodySnip string) error {
	switch {
	case code == http.StatusTooManyRequests:
		return ErrShed
	case code >= 200 && code < 300:
		return nil
	}
	return fmt.Errorf("loadtest: status %d: %s", code, strings.TrimSpace(bodySnip))
}
