package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	assess "github.com/assess-olap/assess"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/server"
)

// newServerHandler is the full-API handler a non-worker assessd serves.
func newServerHandler(s *assess.Session) http.Handler {
	return server.New(s).Handler()
}

func newSalesSession(t *testing.T) *assess.Session {
	t.Helper()
	s, _, err := assess.NewSalesSession(4_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// TestParseCluster pins the -cluster grammar: its three forms, and an
// error quoting every other spec.
func TestParseCluster(t *testing.T) {
	for _, c := range []struct {
		spec string
		want cluster
	}{
		{"", cluster{}},
		{"local:1", cluster{kind: local, shards: 1}},
		{"local:3", cluster{kind: local, shards: 3}},
		{"worker:0/1", cluster{kind: worker, shards: 1}},
		{"worker:1/2", cluster{kind: worker, shards: 2, index: 1}},
		{"http://a", remoteOf([]string{"http://a"})},
		{"http://a|http://b, http://c", remoteOf([]string{"http://a", "http://b"}, []string{"http://c"})},
		{"https://a:1|http://b:2|http://c:3,http://d:4", remoteOf([]string{"https://a:1", "http://b:2", "http://c:3"}, []string{"http://d:4"})},
	} {
		got, err := parseCluster(c.spec)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: parsed %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, spec := range []string{
		"local:0", "local:x", "local:", "local:-2",
		"worker:2/2", "worker:1", "worker:-1/2", "worker:0/0", "worker:a/b",
		"http://a,,http://b", "http://a,", "http://a|", "|", ",",
		"local:2,http://a", "http://a,local:2", "http://a|worker:0/2",
		"a:8080", "localhost:9000", "ftp://a", "http://",
	} {
		_, err := parseCluster(spec)
		if err == nil {
			t.Errorf("%q accepted", spec)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", spec)) {
			t.Errorf("%q: error does not quote the spec: %v", spec, err)
		}
	}
}

// remoteOf is the coordinator shape over the given replica chains.
func remoteOf(chains ...[]string) cluster {
	c := cluster{kind: remote}
	for _, addrs := range chains {
		var chain []dist.ShardClient
		for _, addr := range addrs {
			chain = append(chain, &dist.HTTPClient{BaseURL: addr})
		}
		c.chains = append(c.chains, chain)
	}
	return c
}

// TestCoordinatorFlagsNeedCoordinator: -shard-timeout and -dist-policy
// do something only on a coordinator, so a solo server or a worker
// refuses them; the API server's cache, admission and slow-query flags
// do nothing on a worker, so a worker refuses those too.
func TestCoordinatorFlagsNeedCoordinator(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr bool
	}{
		{nil, false},
		{[]string{"-cluster", "worker:0/2"}, false},
		{[]string{"-cluster", "local:2", "-dist-policy", "partial", "-shard-timeout", "10s"}, false},
		{[]string{"-cluster", "http://a,http://b", "-shard-timeout", "10s"}, false},
		{[]string{"-dist-policy", "partial"}, true},
		{[]string{"-cluster", "worker:0/2", "-shard-timeout", "10s"}, true},
		{[]string{"-cluster", "worker:0/2", "-cache-mb", "0"}, true},
		{[]string{"-cluster", "worker:1/2", "-admit-slots", "4"}, true},
		{[]string{"-cluster", "worker:0/2", "-max-queue", "8"}, true},
		{[]string{"-cluster", "worker:0/2", "-latency-budget", "1s"}, true},
		{[]string{"-cluster", "worker:0/2", "-slow-query-ms", "0"}, true},
		{[]string{"-cluster", "worker:0/2", "-slow-query-log", "slow.log"}, true},
		{[]string{"-cluster", "local:2", "-cache-mb", "0", "-max-queue", "8", "-slow-query-ms", "0"}, false},
		{[]string{"-cache-mb", "0", "-admit-slots", "4", "-latency-budget", "1s", "-slow-query-log", "slow.log"}, false},
	} {
		fs := flag.NewFlagSet("assessd", flag.ContinueOnError)
		o := declareFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		_, err := resolveCluster(fs, o.cluster)
		if (err != nil) != c.wantErr {
			t.Errorf("%q: err %v, want error %v", c.args, err, c.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), strconv.Quote(o.cluster)) {
			t.Errorf("%q: error %q does not quote the -cluster spec", c.args, err)
		}
	}
}

// TestFlagSurface pins assessd's flags: every one has two values in
// use or is an address, a path or a dataset choice.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("assessd", flag.ContinueOnError)
	declareFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"addr", "admit-slots", "cache-mb", "cluster", "data", "debug-addr",
		"dist-policy", "latency-budget", "max-queue", "resident", "rows",
		"seed", "sf", "shard-timeout", "slow-query-log", "slow-query-ms",
		"store-dir",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags %q\nwant  %q", got, want)
	}
}

// TestWorkerCoordinatorEndToEnd drives the assessd wiring the way the
// multi-process smoke does, but in-process: two sessions become shard
// workers over HTTP (-cluster worker:I/2), a third session
// scatter-gathers over them (-cluster URL,URL), and its answers must
// match a solo server's bit for bit on the integer measure.
func TestWorkerCoordinatorEndToEnd(t *testing.T) {
	const nShards = 2

	// Shard workers: each opens the full dataset and keeps its slice.
	var addrs []string
	for i := 0; i < nShards; i++ {
		shape, err := parseCluster(fmt.Sprintf("worker:%d/%d", i, nShards))
		if err != nil {
			t.Fatal(err)
		}
		h, err := workerHandler(newSalesSession(t), shape)
		if err != nil {
			t.Fatal(err)
		}
		ws := httptest.NewServer(h)
		t.Cleanup(ws.Close)
		addrs = append(addrs, ws.URL)

		resp, err := http.Get(ws.URL + "/healthz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("worker %d health: %v %v", i, err, resp)
		}
		resp.Body.Close()
	}

	// Coordinator session over the remote workers.
	coordSession := newSalesSession(t)
	shape, err := parseCluster(strings.Join(addrs, ","))
	if err != nil {
		t.Fatal(err)
	}
	if err := enableDistributed(coordSession, shape, 0, "fail"); err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(newServerHandler(coordSession))
	t.Cleanup(coord.Close)

	solo := httptest.NewServer(newServerHandler(newSalesSession(t)))
	t.Cleanup(solo.Close)

	statements := []string{
		`with SALES by product, country get quantity`,
		`with SALES for category = 'Fruit' by type, year get quantity`,
		`with SALES for product = 'Apple' by country get quantity`,
	}
	for _, stmt := range statements {
		req := map[string]any{"statement": stmt}
		code, body := postJSON(t, coord.URL+"/query", req)
		if code != http.StatusOK {
			t.Fatalf("%s: coordinator status %d: %s", stmt, code, body)
		}
		scode, sbody := postJSON(t, solo.URL+"/query", req)
		if scode != http.StatusOK {
			t.Fatalf("%s: solo status %d: %s", stmt, scode, sbody)
		}
		if got, want := canonQuantities(t, body), canonQuantities(t, sbody); got != want {
			t.Errorf("%s:\ncoordinator %s\nsolo        %s", stmt, got, want)
		}
	}

	// The coordinator's /stats must expose the shard topology.
	resp, err := http.Get(coord.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Dist *struct {
			Tables []struct {
				Fact   string `json:"fact"`
				Shards []struct {
					Targets []string `json:"targets"`
				} `json:"shards"`
			} `json:"tables"`
		} `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Dist == nil || len(stats.Dist.Tables) != 2 {
		t.Fatalf("dist stats = %+v, want 2 sharded tables", stats.Dist)
	}
	for _, tb := range stats.Dist.Tables {
		if len(tb.Shards) != nShards {
			t.Errorf("table %s has %d shards, want %d", tb.Fact, len(tb.Shards), nShards)
		}
	}
}

// TestInProcessClusterFlagWiring covers the local:N shape end to end
// through enableDistributed, one shard included: local:1 runs a real
// one-shard cluster, not an undistributed server.
func TestInProcessClusterFlagWiring(t *testing.T) {
	for _, spec := range []string{"local:1", "local:3"} {
		shape, err := parseCluster(spec)
		if err != nil {
			t.Fatal(err)
		}
		session := newSalesSession(t)
		if err := enableDistributed(session, shape, 0, "partial"); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newServerHandler(session))
		t.Cleanup(srv.Close)

		code, body := postJSON(t, srv.URL+"/query", map[string]any{
			"statement": `with SALES by country get quantity`,
		})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", spec, code, body)
		}
		var out struct {
			Partial bool `json:"partial"`
			Cells   int  `json:"cells"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Partial || out.Cells == 0 {
			t.Fatalf("%s: response = %+v", spec, out)
		}
		st, ok := session.DistStats()
		if !ok || st.Fanouts == 0 || len(st.Tables) == 0 || len(st.Tables[0].Shards) != shape.shards {
			t.Fatalf("%s: dist stats %+v, want fan-outs over %d shards", spec, st, shape.shards)
		}
	}
}

// TestWorkerHandlerValidation: parseCluster leaves the worker wiring
// no index to refuse, so this pins what the wiring still decides. The
// workers of worker:I/N hold slices that partition each fact,
// worker:0/1 holds all of it, and a coordinator refuses an unknown
// -dist-policy.
func TestWorkerHandlerValidation(t *testing.T) {
	full := map[string]int{}
	session := newSalesSession(t)
	for _, name := range session.Engine.Facts() {
		f, _ := session.Engine.Fact(name)
		full[name] = f.Rows()
	}
	for _, n := range []int{1, 2} {
		held := map[string]int{}
		for i := 0; i < n; i++ {
			shape, err := parseCluster(fmt.Sprintf("worker:%d/%d", i, n))
			if err != nil {
				t.Fatal(err)
			}
			h, err := workerHandler(newSalesSession(t), shape)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist/stats", nil))
			var st dist.WorkerStats
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			for _, f := range st.Facts {
				if f.Rows == 0 || (n > 1 && f.Rows == full[f.Fact]) {
					t.Errorf("%s: worker:%d/%d holds %d of %d rows", f.Fact, i, n, f.Rows, full[f.Fact])
				}
				held[f.Fact] += f.Rows
			}
		}
		if !reflect.DeepEqual(held, full) {
			t.Errorf("%d workers hold %v rows, the facts have %v", n, held, full)
		}
	}

	shape, err := parseCluster("local:2")
	if err != nil {
		t.Fatal(err)
	}
	if err := enableDistributed(session, shape, 0, "maybe"); err == nil {
		t.Error("no error for unknown -dist-policy")
	}
}

// canonQuantities renders a /query response's rows as a sorted
// "coordinate=quantity" list for cross-server comparison of the
// integer-valued measure.
func canonQuantities(t *testing.T, body []byte) string {
	t.Helper()
	var out struct {
		Levels []string         `json:"levels"`
		Rows   []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	lines := make([]string, 0, len(out.Rows))
	for _, r := range out.Rows {
		var coord []string
		for _, l := range out.Levels {
			coord = append(coord, fmt.Sprint(r[l]))
		}
		lines = append(lines, fmt.Sprintf("%s=%v", strings.Join(coord, "|"), r["quantity"]))
	}
	sort.Strings(lines)
	return strings.Join(lines, "; ")
}
