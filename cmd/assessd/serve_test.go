package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/server"
)

// syncBuffer is a goroutine-safe sink for the slow-query log under test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestServeShutdown is the regression test for the shutdown path: on
// cancellation both the API and debug listeners must stop accepting
// connections and the slow-query log must be flushed to its sink.
func TestServeShutdown(t *testing.T) {
	sink := &syncBuffer{}
	// Threshold 0ns with a positive value: everything logged is slower.
	slow := obsv.NewSlowLog(sink, time.Nanosecond)
	slow.Log(time.Second, obsv.SlowEntry{
		RequestID: "reg-test",
		Endpoint:  "/assess",
		Statement: "with SALES by region get qty",
	})
	// Entry is buffered: it must not reach the sink before shutdown.
	if s := sink.String(); s != "" {
		t.Fatalf("slow log flushed before shutdown: %q", s)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan [2]net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, serveConfig{
			addr:      "127.0.0.1:0",
			debugAddr: "127.0.0.1:0",
			handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, "ok")
			}),
			metrics: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				obsv.Default.WritePrometheus(w)
			}),
			slow:  slow,
			drain: 2 * time.Second,
			ready: func(api, debug net.Addr) { ready <- [2]net.Addr{api, debug} },
		})
	}()

	var addrs [2]net.Addr
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for listeners")
	}
	apiURL := "http://" + addrs[0].String()
	debugURL := "http://" + addrs[1].String()

	if code, body := get(t, apiURL+"/"); code != http.StatusOK || body != "ok" {
		t.Fatalf("api listener: got %d %q", code, body)
	}
	if code, body := get(t, debugURL+"/metrics"); code != http.StatusOK || !strings.Contains(body, "# TYPE") {
		t.Fatalf("debug /metrics: got %d, body %q", code, body[:min(len(body), 120)])
	}
	if code, _ := get(t, debugURL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("debug pprof: got %d", code)
	}
	if code, body := get(t, debugURL+"/debug/vars"); code != http.StatusOK || !strings.HasPrefix(body, "{") {
		t.Fatalf("debug expvar: got %d", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned error on clean shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return within the drain budget")
	}

	// Both listeners must refuse connections after shutdown.
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a.String(), 200*time.Millisecond); err == nil {
			c.Close()
			t.Errorf("listener %s still accepting after shutdown", a)
		}
	}

	// The buffered slow-query entry must have been flushed during drain.
	out := sink.String()
	if !strings.Contains(out, `"requestId":"reg-test"`) {
		t.Errorf("slow log not flushed on shutdown; sink = %q", out)
	}
}

// TestServeListenError covers the error path: a bad debug address must
// not leak the already-bound API listener.
func TestServeListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	err = serve(context.Background(), serveConfig{
		addr:      "127.0.0.1:0",
		debugAddr: ln.Addr().String(), // already in use
		handler:   http.NewServeMux(),
	})
	if err == nil {
		t.Fatal("serve succeeded with a conflicting debug address")
	}
}

// TestDebugMetricsMirrorsAPI: the debug listener's /metrics renders
// through the server, so it lists the same families as the API's — the
// process-wide ones and the server's own (cache, catalog, egress).
func TestDebugMetricsMirrorsAPI(t *testing.T) {
	session := newSalesSession(t)
	session.EnableCache(1 << 20)
	srv := server.New(session)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan [2]net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, serveConfig{
			addr:      "127.0.0.1:0",
			debugAddr: "127.0.0.1:0",
			handler:   srv.Handler(),
			metrics:   http.HandlerFunc(srv.Metrics),
			slow:      obsv.NewSlowLog(io.Discard, 0),
			drain:     2 * time.Second,
			ready:     func(api, debug net.Addr) { ready <- [2]net.Addr{api, debug} },
		})
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	var addrs [2]net.Addr
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before ready: %v", err)
	}
	apiURL, debugURL := "http://"+addrs[0].String(), "http://"+addrs[1].String()
	// One request first, so the HTTP families exist before either scrape.
	if code, _ := postJSON(t, apiURL+"/assess", map[string]string{"statement": `with SALES by country assess quantity labels quartiles`}); code != http.StatusOK {
		t.Fatalf("/assess status %d", code)
	}
	families := func(url string) []string {
		code, body := get(t, url+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("%s/metrics status %d", url, code)
		}
		var out []string
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				out = append(out, f[2])
			}
		}
		return out
	}
	api, debug := families(apiURL), families(debugURL)
	if strings.Join(api, " ") != strings.Join(debug, " ") {
		t.Errorf("families differ:\n  api   %v\n  debug %v", api, debug)
	}
	for _, want := range []string{"assess_cache_misses_total", "assess_catalog_generation", "assess_server_encode_seconds", "assess_queries_total", "assess_process_uptime_seconds"} {
		if !slices.Contains(debug, want) {
			t.Errorf("debug /metrics lacks %s", want)
		}
	}
}
