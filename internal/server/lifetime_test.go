package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sales"
)

// scrape returns the handler's GET /metrics body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestDroppedServerFreesSession: once nothing outside refers to a server,
// its session (engine, facts, cache) is garbage. Nothing process-wide —
// obsv.Default above all — may keep it; the finalizer must run within a
// bounded number of collections, with no wall-clock wait.
func TestDroppedServerFreesSession(t *testing.T) {
	freed := make(chan struct{})
	func() {
		session := core.NewSession()
		if err := session.RegisterCube("SALES", sales.FigureOne().Fact); err != nil {
			t.Fatal(err)
		}
		session.EnableCache(1 << 20)
		runtime.SetFinalizer(session, func(*core.Session) { close(freed) })
		h := New(session).Handler()
		for range 2 {
			serve(t, h, siblingStatement, false)
		}
		if m := scrape(t, h); !strings.Contains(m, "assess_cache_misses_total 2\n") {
			t.Fatalf("/metrics before the drop lacks the session's 2 misses:\n%s", m)
		}
	}()
	for range 20 {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
			runtime.Gosched()
		}
	}
	t.Fatal("a dropped server's session was not finalized after 20 collections: something still refers to it")
}

// TestTwoServersReportOwnSessions: two servers in one process each serve
// their own session's series, and neither shows the other's.
func TestTwoServersReportOwnSessions(t *testing.T) {
	newHandler := func(cubes ...string) (http.Handler, *core.Session) {
		session := core.NewSession()
		for _, name := range cubes {
			if err := session.RegisterCube(name, sales.FigureOne().Fact); err != nil {
				t.Fatal(err)
			}
		}
		session.EnableCache(1 << 20)
		return New(session).Handler(), session
	}
	ha, a := newHandler("SALES")
	hb, b := newHandler("SALES", "SALES2")
	if a.Generation() == b.Generation() {
		t.Fatalf("both sessions at generation %d: the test cannot tell them apart", a.Generation())
	}
	for range 3 { // miss, stored miss, hit
		serve(t, ha, siblingStatement, false)
	}
	for _, c := range []struct {
		name string
		h    http.Handler
		s    *core.Session
	}{{"a", ha, a}, {"b", hb, b}} {
		st, _ := c.s.CacheStats()
		m := scrape(t, c.h)
		for _, want := range []string{
			"assess_cache_entries " + strconv.FormatInt(st.Entries, 10),
			"assess_catalog_generation " + strconv.FormatUint(c.s.Generation(), 10),
		} {
			if !strings.Contains(m, want+"\n") {
				t.Errorf("server %s: /metrics lacks %q", c.name, want)
			}
		}
		if n := strings.Count(m, "# TYPE assess_cache_entries "); n != 1 {
			t.Errorf("server %s: assess_cache_entries declared %d times", c.name, n)
		}
	}
	if st, _ := a.CacheStats(); st.Entries != 1 {
		t.Fatalf("session a holds %d entries, want 1", st.Entries)
	}
}

// TestProcessUptimeOutlivesServers: the process series are registered
// once, so building a server does not restart the uptime clock.
func TestProcessUptimeOutlivesServers(t *testing.T) {
	uptime := func() float64 {
		for _, s := range obsv.Default.Snapshots() {
			if s.Name == "assess_process_uptime_seconds" {
				return s.Value
			}
		}
		t.Fatal("obsv.Default has no assess_process_uptime_seconds")
		return 0
	}
	before := uptime()
	New(core.NewSession())
	if after := uptime(); after < before {
		t.Fatalf("uptime went %v → %v across server.New", before, after)
	}
}
