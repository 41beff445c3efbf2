package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sales"
)

// newCachedServer serves a session with the query-result cache enabled.
func newCachedServer(t *testing.T) *httptest.Server {
	t.Helper()
	session := core.NewSession()
	ds := sales.FigureOne()
	if err := session.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	session.EnableCache(0)
	srv := httptest.NewServer(New(session).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestAssessCacheField(t *testing.T) {
	srv := newCachedServer(t)
	req := map[string]any{"statement": siblingStatement}
	var out struct {
		Cache string `json:"cache"`
		Cells int    `json:"cells"`
	}

	resp, body := post(t, srv, "/assess", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "miss" {
		t.Fatalf("first call cache = %q, want miss", out.Cache)
	}
	// The second evaluation is the one that is stored.
	resp, body = post(t, srv, "/assess", req)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("second call: status %d, cache = %q, want miss", resp.StatusCode, out.Cache)
	}

	resp, body = post(t, srv, "/assess", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	cells := out.Cells
	out = struct {
		Cache string `json:"cache"`
		Cells int    `json:"cells"`
	}{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "hit" {
		t.Fatalf("third call cache = %q, want hit", out.Cache)
	}
	if out.Cells != cells {
		t.Fatalf("cached result has %d cells, evaluated had %d", out.Cells, cells)
	}

	// A syntactic variant of the same statement also hits.
	variant := strings.ReplaceAll(siblingStatement, "\n\t", " ")
	resp, body = post(t, srv, "/assess", map[string]any{"statement": variant})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "hit" {
		t.Fatalf("syntactic variant cache = %q, want hit", out.Cache)
	}
}

func TestAssessCacheFieldOmittedWhenOff(t *testing.T) {
	srv := newServer(t) // no cache
	resp, body := post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["cache"]; present {
		t.Fatal("cache field present with caching off")
	}
}

func TestExplainCacheField(t *testing.T) {
	srv := newCachedServer(t)
	var out struct {
		Cache string `json:"cache"`
	}

	_, body := post(t, srv, "/explain", map[string]any{"statement": siblingStatement})
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "miss" {
		t.Fatalf("explain before exec cache = %q, want miss", out.Cache)
	}

	// A first evaluation is not stored; the second is.
	for _, want := range []string{"miss", "hit"} {
		post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
		_, body = post(t, srv, "/explain", map[string]any{"statement": siblingStatement})
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cache != want {
			t.Fatalf("explain after exec cache = %q, want %q", out.Cache, want)
		}
	}
	if out.Cache != "hit" {
		t.Fatalf("explain after exec cache = %q, want hit", out.Cache)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newCachedServer(t)
	for range 3 {
		post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Cache *struct {
			Hits        int64 `json:"hits"`
			Misses      int64 `json:"misses"`
			Deferred    int64 `json:"deferred"`
			Entries     int64 `json:"entries"`
			Bytes       int64 `json:"bytes"`
			BudgetBytes int64 `json:"budgetBytes"`
		} `json:"cache"`
		Cubes   []string        `json:"cubes"`
		Metrics []obsv.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Cache == nil {
		t.Fatal("stats lacks cache counters with caching on")
	}
	if out.Cache.Hits != 1 || out.Cache.Misses != 2 || out.Cache.Deferred != 1 || out.Cache.Entries != 1 {
		t.Fatalf("cache counters = %+v", *out.Cache)
	}
	if out.Cache.Bytes <= 0 || out.Cache.BudgetBytes != 64<<20 {
		t.Fatalf("byte accounting = %+v", *out.Cache)
	}
	var generation float64
	for _, m := range out.Metrics {
		if m.Name == "assess_catalog_generation" {
			generation = m.Value
		}
	}
	if generation == 0 {
		t.Fatal("generation is zero after registering a cube")
	}
	if len(out.Cubes) != 1 || out.Cubes[0] != "SALES" {
		t.Fatalf("cubes = %v", out.Cubes)
	}
}

// TestSecondSightAdmission: statements that are never repeated leave the
// cache empty, and a statement's result is stored on its second
// evaluation, so the third request is the first hit. /metrics and /stats
// count the results that were not stored.
func TestSecondSightAdmission(t *testing.T) {
	session, _ := salesSession(t, 2000)
	h, _, _, _ := cachedHandler(t, session, 0)
	cacheOf := func(body []byte) string {
		t.Helper()
		var out struct{ Cache string }
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.Cache
	}
	for i := range 50 {
		stmt := fmt.Sprintf(`with SALES by product, country assess quantity against %d labels quartiles`, 100+i)
		if got := cacheOf(serve(t, h, stmt, false)); got != "miss" {
			t.Fatalf("distinct statement %d: cache %q, want miss", i, got)
		}
	}
	if st, _ := session.CacheStats(); st.Entries != 0 || st.Bytes != 0 || st.Deferred != 50 || st.Evictions != 0 {
		t.Fatalf("after 50 distinct statements: %+v, want an empty cache and 50 deferred", st)
	}
	for i, want := range []string{"miss", "miss", "hit"} {
		if got := cacheOf(serve(t, h, siblingStatement, false)); got != want {
			t.Fatalf("request %d of one statement: cache %q, want %q", i+1, got, want)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"assess_cache_deferred_total 51", "assess_cache_entries 1"} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		Cache map[string]int64 `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache["deferred"] != 51 || stats.Cache["entries"] != 1 {
		t.Errorf("/stats cache section = %v, want 51 deferred and 1 entry", stats.Cache)
	}
}

// TestKeptAcrossDisjointAppend: a row appended outside every get of a
// cached statement leaves its entry valid. /explain reports the hit
// before it is served, the reply is a hit whose probe note is "kept",
// and /metrics and /stats count it.
func TestKeptAcrossDisjointAppend(t *testing.T) {
	session, ds := salesSession(t, 2000)
	h, _, _, _ := cachedHandler(t, session, 0)
	for range 3 {
		serve(t, h, siblingStatement, false)
	}

	// A row sold in Germany: siblingStatement reads Italy and France.
	s := ds.Fact.Schema
	hs, _ := s.HierIndex("Store")
	germany, _ := s.Hiers[hs].Dict(2).Lookup("Germany")
	up := s.Hiers[hs].LevelMap(0, 2)
	keys := make([]int32, len(ds.Fact.Keys))
	for r, k := range ds.Fact.Keys[hs] {
		if up[k] == germany {
			for i := range keys {
				keys[i] = ds.Fact.Keys[i][r]
			}
			break
		}
	}
	if up[keys[hs]] != germany {
		t.Fatal("no row in Germany")
	}
	if err := ds.Fact.Append(keys, make([]float64, len(ds.Fact.Meas))); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/explain", strings.NewReader(`{"statement": `+jsonString(siblingStatement)+`}`)))
	var explained struct{ Cache string }
	if err := json.Unmarshal(rec.Body.Bytes(), &explained); err != nil || explained.Cache != "hit" {
		t.Fatalf("/explain after a disjoint append: cache %q (%v), want hit", explained.Cache, err)
	}
	var traced struct {
		Cache string
		Trace *obsv.SpanJSON
	}
	if err := json.Unmarshal(serve(t, h, siblingStatement, true), &traced); err != nil {
		t.Fatal(err)
	}
	note := ""
	for _, sp := range traced.Trace.Children {
		for _, c := range sp.Children {
			if c.Name == "cache.probe" {
				note = c.Note
			}
		}
	}
	if traced.Cache != "hit" || note != "kept" {
		t.Fatalf("reply after a disjoint append: cache %q, probe note %q, want hit, kept", traced.Cache, note)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "assess_cache_kept_total 1\n") {
		t.Error("/metrics lacks assess_cache_kept_total 1")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		Cache map[string]int64 `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache["kept"] != 1 {
		t.Errorf("/stats cache section = %v, want 1 kept", stats.Cache)
	}
}

// jsonString quotes s as a JSON string.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestStatsEndpointCacheOff(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Cache *struct{} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != nil {
		t.Fatal("stats reports cache counters with caching off")
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	srv := newServer(t)
	big := map[string]any{"statement": strings.Repeat("x", maxBodyBytes+1)}
	buf, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/assess", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var out struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if out.Error == "" || out.Kind != "internal" {
		t.Fatalf("413 body = %+v", out)
	}
}
