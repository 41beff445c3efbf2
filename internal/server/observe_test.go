package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sales"
)

// promLine matches a Prometheus text-format sample line:
// name{labels} value  — labels optional, value a float.
var promLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf))$`)

// TestMetricsEndpoint scrapes /metrics after traffic and verifies the
// exposition parses line by line with at least 12 distinct series names.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t)
	// Generate traffic across the instrumented paths.
	post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	post(t, srv, "/query", map[string]any{
		"statement": `with SALES for country = 'Italy' by product, country get quantity`,
	})
	post(t, srv, "/assess", map[string]any{"statement": "with SALES by"}) // parse error

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	names := map[string]bool{}
	typed := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", i+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			typed[f[2]] = f[3]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparsable sample: %q", i+1, line)
		}
		// Histogram child series (_bucket/_sum/_count) belong to the
		// family that declared the TYPE.
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(base, suf); fam != base && typed[fam] == "histogram" {
				base = fam
			}
		}
		if typed[base] == "" {
			t.Errorf("line %d: series %q has no # TYPE declaration", i+1, base)
		}
		names[base] = true
	}
	if len(names) < 12 {
		t.Errorf("only %d distinct series families, want >= 12: %v", len(names), keys(names))
	}
	for _, want := range []string{
		"assess_http_requests_total",
		"assess_http_request_seconds",
		"assess_queries_total",
		"assess_query_seconds",
		"assess_query_errors_total",
		"assess_stage_seconds",
		"assess_engine_rows_scanned_total",
		"assess_process_goroutines",
	} {
		if !names[want] {
			t.Errorf("series %q missing from /metrics", want)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceSpanTrees requests ?trace=1 for each strategy and checks the
// span tree shape: the root request span must contain parse, bind,
// plan, and execute children, in that order and nested inside it.
func TestTraceSpanTrees(t *testing.T) {
	srv := newServer(t)
	for _, planName := range []string{"np", "jop", "pop"} {
		resp, body := post(t, srv, "/assess?trace=1", map[string]any{
			"statement": siblingStatement, "plan": planName,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %s: status %d: %s", planName, resp.StatusCode, body)
		}
		var out struct {
			Strategy string         `json:"strategy"`
			Trace    *obsv.SpanJSON `json:"trace"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Trace == nil {
			t.Fatalf("plan %s: no trace in response", planName)
		}
		root := out.Trace
		if root.Name != "request" {
			t.Errorf("plan %s: root span %q, want request", planName, root.Name)
		}
		// The stages run one after another inside the request, so they
		// appear in pipeline order and, being disjoint intervals of the
		// root's, cannot add up to more than it. (How much of the root
		// they cover is a matter of scheduling, not of structure.)
		var stages []string
		var sum float64
		for _, c := range root.Children {
			stages = append(stages, c.Name)
			sum += c.DurationMs
		}
		if got, want := strings.Join(stages, " "), "parse bind plan execute"; got != want {
			t.Errorf("plan %s: root children %q, want %q", planName, got, want)
		}
		if sum > root.DurationMs*(1+1e-9) {
			t.Errorf("plan %s: stages sum to %.6fms, more than the root's %.6fms", planName, sum, root.DurationMs)
		}
		// The execute span must contain nested engine/cache work.
		var execute *obsv.SpanJSON
		for i := range root.Children {
			if root.Children[i].Name == "execute" {
				execute = &root.Children[i]
			}
		}
		if execute == nil || len(execute.Children) == 0 {
			t.Fatalf("plan %s: execute span has no children", planName)
		}
		nested := map[string]bool{}
		collect(execute, nested)
		if !nested["label"] {
			t.Errorf("plan %s: no label span under execute: %v", planName, keys(nested))
		}
		// Each strategy performs its engine work under a distinct span:
		// NP issues plain scans, JOP a join-at-the-engine, POP a pivot.
		engineSpan := map[string]string{"np": "engine.scan", "jop": "engine.join", "pop": "engine.pivot"}[planName]
		if !nested[engineSpan] {
			t.Errorf("plan %s: no %s span under execute: %v", planName, engineSpan, keys(nested))
		}
	}
}

func collect(s *obsv.SpanJSON, into map[string]bool) {
	for i := range s.Children {
		into[s.Children[i].Name] = true
		collect(&s.Children[i], into)
	}
}

// TestTraceBodyField covers the request-body "trace": true opt-in and
// that traces stay off the response by default.
func TestTraceBodyField(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/assess", map[string]any{
		"statement": siblingStatement, "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"trace"`)) {
		t.Error("trace missing with body opt-in")
	}
	_, body = post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Error("trace present without opt-in")
	}
}

// TestExplainTrace verifies /explain also honours ?trace=1.
func TestExplainTrace(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/explain?trace=1", map[string]any{"statement": siblingStatement})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["trace"]; !ok {
		t.Error("no trace on /explain?trace=1")
	}
	if _, ok := out["plan"]; !ok {
		t.Error("plan missing from /explain response")
	}
}

// TestRequestID verifies the middleware echoes client IDs, generates
// one when absent, and embeds the ID in error JSON.
func TestRequestID(t *testing.T) {
	srv := newServer(t)

	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-supplied-42" {
		t.Errorf("echoed ID %q, want client-supplied-42", got)
	}

	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(RequestIDHeader); len(got) != 16 {
		t.Errorf("generated ID %q, want 16 hex chars", got)
	}

	// Oversized client IDs are replaced, not propagated into logs.
	req3, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req3.Header.Set(RequestIDHeader, strings.Repeat("x", 300))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get(RequestIDHeader); len(got) != 16 {
		t.Errorf("oversized ID passed through: %q", got)
	}

	// Error bodies carry the request ID for correlation.
	buf, _ := json.Marshal(map[string]any{"statement": "with SALES by"})
	req4, _ := http.NewRequest("POST", srv.URL+"/assess", bytes.NewReader(buf))
	req4.Header.Set("Content-Type", "application/json")
	req4.Header.Set(RequestIDHeader, "err-corr-7")
	resp4, err := http.DefaultClient.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var e struct {
		RequestID string `json:"requestId"`
	}
	if err := json.NewDecoder(resp4.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "err-corr-7" {
		t.Errorf("error requestId %q, want err-corr-7", e.RequestID)
	}
}

// TestSlowQueryLog wires a 1ns-threshold slow log into the server and
// verifies a served statement lands in the sink with its request ID
// after a flush.
func TestSlowQueryLog(t *testing.T) {
	session := core.NewSession()
	ds := sales.FigureOne()
	if err := session.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	slow := obsv.NewSlowLog(&sink, time.Nanosecond)
	srv := httptest.NewServer(New(session, WithSlowLog(slow)).Handler())
	defer srv.Close()

	buf, _ := json.Marshal(map[string]any{"statement": siblingStatement})
	req, _ := http.NewRequest("POST", srv.URL+"/assess", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := slow.Flush(); err != nil {
		t.Fatal(err)
	}

	line := strings.TrimSpace(sink.String())
	if line == "" {
		t.Fatal("slow log empty after a logged request")
	}
	var entry obsv.SlowEntry
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("slow log line not JSON: %v: %q", err, line)
	}
	if entry.RequestID != "slow-1" || entry.Endpoint != "/assess" ||
		entry.Strategy == "" || entry.TotalMs <= 0 {
		t.Errorf("slow entry = %+v", entry)
	}
	if !strings.Contains(entry.Statement, "with SALES") {
		t.Errorf("statement not recorded: %q", entry.Statement)
	}
}

// TestStatsEnriched verifies /stats now carries process info and the
// metrics snapshot list.
func TestStatsEnriched(t *testing.T) {
	srv := newServer(t)
	post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		UptimeSeconds float64         `json:"uptimeSeconds"`
		Goroutines    int             `json:"goroutines"`
		HeapBytes     uint64          `json:"heapBytes"`
		Metrics       []obsv.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Goroutines <= 0 || out.HeapBytes == 0 {
		t.Errorf("process stats missing: %+v", out)
	}
	if len(out.Metrics) == 0 {
		t.Error("no metric snapshots in /stats")
	}
}
