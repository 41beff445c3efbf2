package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
)

// panicBackend is a segment backend whose every block decode panics.
type panicBackend struct{ rows int }

func (b panicBackend) Rows() int                       { return b.rows }
func (b panicBackend) Append([]int32, []float64) error { return errors.New("panicBackend: read-only") }
func (b panicBackend) Info() storage.SegmentInfo       { return storage.SegmentInfo{Segments: 2} }
func (b panicBackend) Snapshot(storage.ColSet, []storage.LevelPred) storage.ScanSource {
	return panicSource(b)
}

type panicSource panicBackend

func (s panicSource) Rows() int           { return s.rows }
func (s panicSource) Blocks() int         { return 2 }
func (s panicSource) BlockRows(b int) int { return s.rows/2 + b*(s.rows%2) }
func (s panicSource) Close()              {}
func (s panicSource) Block(int, *storage.BlockScratch) (storage.BlockCols, bool, error) {
	panic("injected block panic")
}

// TestScanPanicAnswers500: a statement whose scan panics on a worker
// answers 500 with kind internal and the request ID, is counted in
// assess_query_panics_total, and the server goes on answering.
func TestScanPanicAnswers500(t *testing.T) {
	session := core.NewSession()
	ds := sales.FigureOne()
	f := storage.NewSegmentTable(ds.Schema, panicBackend{rows: ds.Fact.Rows()})
	if err := session.RegisterCube("SALES", f); err != nil {
		t.Fatal(err)
	}
	session.Engine.SetParallelism(2)
	session.Engine.SetMorselSize(1)
	srv := httptest.NewServer(New(session).Handler())
	t.Cleanup(srv.Close)
	resp, body := post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var out errorResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "internal" || out.RequestID == "" || out.RequestID != resp.Header.Get(RequestIDHeader) ||
		!strings.Contains(out.Error, "injected block panic") {
		t.Errorf("error body %+v (request ID header %q)", out, resp.Header.Get(RequestIDHeader))
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), "\nassess_query_panics_total ") ||
		strings.Contains(string(metrics), "\nassess_query_panics_total 0\n") {
		t.Error("no panic counted in assess_query_panics_total")
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the panic: status %d", hresp.StatusCode)
	}
}

// TestScanPanicReachesSlowLog: a statement whose scan panics writes one
// slow-log entry with its error and stack, however far below the
// threshold it failed, on /assess and /query alike.
func TestScanPanicReachesSlowLog(t *testing.T) {
	session := core.NewSession()
	ds := sales.FigureOne()
	f := storage.NewSegmentTable(ds.Schema, panicBackend{rows: ds.Fact.Rows()})
	if err := session.RegisterCube("SALES", f); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	slow := obsv.NewSlowLog(&sink, time.Hour)
	srv := httptest.NewServer(New(session, WithRegistry(obsv.NewRegistry()), WithSlowLog(slow)).Handler())
	t.Cleanup(srv.Close)
	for _, c := range []struct{ endpoint, stmt string }{
		{"/assess", siblingStatement},
		{"/query", "with SALES by country get quantity"},
	} {
		sink.Reset()
		resp, body := post(t, srv, c.endpoint, map[string]any{"statement": c.stmt})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500: %s", c.endpoint, resp.StatusCode, body)
		}
		if err := slow.Flush(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
		var e obsv.SlowEntry
		if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &e) != nil {
			t.Fatalf("%s: slow log %q, want one entry", c.endpoint, sink.String())
		}
		if e.Endpoint != c.endpoint || e.Statement != c.stmt || e.RequestID != resp.Header.Get(RequestIDHeader) ||
			!strings.Contains(e.Error, "injected block panic") || !strings.Contains(e.Stack, "goroutine") {
			t.Errorf("%s: slow entry %+v", c.endpoint, e)
		}
	}
	// A statement that fails without a panic stays out of the log.
	sink.Reset()
	if resp, body := post(t, srv, "/assess", map[string]any{"statement": "garbage"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := slow.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Errorf("a syntax error reached the slow log: %s", sink.String())
	}
}
