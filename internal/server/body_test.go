package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/oracle"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/ssb"
)

// Cache hits answered from the rows kept with their entry. The contract:
// such a reply is, byte for byte, what the streaming encoder writes for
// the same result under the same header.

// rowsMember cuts the part of an /assess body that an entry keeps: from
// the comma before "rows" to the final newline. Quotes inside JSON
// strings are escaped, so the first match is the member itself.
func rowsMember(t testing.TB, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`,"rows":[`))
	if i < 0 {
		t.Fatalf("body has no rows member: %s", body)
	}
	return body[i:]
}

// TestRetainedRowsMatchStreamedBody runs encode_test.go's hostile table
// through the retained path: rows encoded once into an allocation of the
// measured length, then written behind each header.
func TestRetainedRowsMatchStreamedBody(t *testing.T) {
	hostile := hostileColumns()
	noBench, noLabels := hostile, hostile
	noBench.Benchmark, noLabels.Labels = nil, nil
	plain := assessHeader{Strategy: "POP", Cells: 3, TotalMs: 0.5, Breakdown: map[string]float64{"Get C": 1e-7, "Label": 2}, Cache: "hit"}
	full := plain
	full.Partial, full.DegradedShards = true, []string{"LINEORDER/1", `a"b`}
	full.Trace = &obsv.SpanJSON{Name: "request", DurationMs: 1.25, Children: []obsv.SpanJSON{{Name: "cache.probe", Note: `hit bytes,"rows":[`}}}
	for name, cols := range map[string]exec.Columns{
		"hostile":             hostile,
		"no benchmark column": noBench,
		"nil labels":          noLabels,
		"empty cube":          {Dicts: hostile.Dicts},
		"large":               syntheticColumns(20000),
	} {
		miss := plain
		miss.Cache = "miss"
		streamed := encodeAssess(t, miss, cols)
		missHead, err := json.Marshal(miss)
		if err != nil {
			t.Fatal(err)
		}
		n := len(streamed) - (len(missHead) - 1) // what writeResult reports as the tail
		b := assessBody(cols)
		rows := retainedRows(context.Background(), b, n, b.workers(2))
		if len(rows) != n || cap(rows) != n {
			t.Errorf("%s: %d retained bytes in an allocation of %d, measured %d", name, len(rows), cap(rows), n)
		}
		for _, head := range []assessHeader{plain, full} {
			buf, err := json.Marshal(head)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if m, err := writeRetained(&got, buf, rows); err != nil || m != int64(got.Len()) {
				t.Fatalf("%s: writeRetained = (%d, %v), wrote %d", name, m, err, got.Len())
			}
			if want := referenceAssess(t, head, cols); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: retained reply differs from encoding/json:\n got %s\nwant %s", name, got.Bytes(), want)
			}
		}
	}
}

// cachedHandler serves session, with the cache on, under a registry and a
// slow log of its own.
func cachedHandler(t testing.TB, session *core.Session, budget int64) (http.Handler, *obsv.Registry, *obsv.SlowLog, *bytes.Buffer) {
	t.Helper()
	session.EnableCache(budget)
	reg := obsv.NewRegistry()
	var sink bytes.Buffer
	slow := obsv.NewSlowLog(&sink, time.Nanosecond)
	return New(session, WithRegistry(reg), WithSlowLog(slow)).Handler(), reg, slow, &sink
}

// serve posts one /assess request to the handler in-process.
func serve(t testing.TB, h http.Handler, stmt string, trace bool) []byte {
	t.Helper()
	reqBody, err := json.Marshal(map[string]any{"statement": stmt, "trace": trace})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", stmt, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func bodyOutcomes(reg *obsv.Registry) (served, filled, skipped int64) {
	count := func(outcome string) int64 {
		return reg.Counter("assess_cache_body_total", "", "outcome", outcome).Value()
	}
	return count("served"), count("filled"), count("skipped")
}

// TestRetainedBodiesAreStreamedBodies serves every oracle-generated
// statement (all five benchmark kinds; get statements go to /query, which
// has no cache) four times: the miss streams, the first hit fills the
// entry's rows, the next two are served from them, with and without a
// trace. Every body must be an encoding/json fixed point like the
// streamed ones, and carry the very rows the miss streamed.
func TestRetainedBodiesAreStreamedBodies(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		c := oracle.Generate(seed)
		session := oracleSession(t, c)
		h, reg, _, _ := cachedHandler(t, session, 0)
		for i, stmt := range c.Statements {
			kind, err := session.BenchmarkKind(stmt)
			if err != nil {
				t.Fatal(err)
			}
			kinds[kind.String()]++
			var rows []byte
			// The fill happens under a trace for every other statement.
			for j, trace := range []bool{false, i%2 == 1, false, true} {
				body := serve(t, h, stmt, trace)
				var ar assessResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Fatalf("seed %d: %s: reply %d: %v", seed, stmt, j, err)
				}
				if want := map[bool]string{true: "miss", false: "hit"}[j == 0]; ar.Cache != want || (ar.Trace != nil) != trace {
					t.Fatalf("seed %d: %s: reply %d: cache %q (want %q), trace %v", seed, stmt, j, ar.Cache, want, ar.Trace != nil)
				}
				if ar.Cells != len(ar.Rows) || ar.Rows == nil {
					t.Errorf("seed %d: %s: reply %d: cells %d, %d rows", seed, stmt, j, ar.Cells, len(ar.Rows))
				}
				if again := referenceJSON(t, ar); !bytes.Equal(body, again) {
					t.Errorf("seed %d: %s: reply %d:\n got %s\nwant %s", seed, stmt, j, body, again)
				}
				if j == 0 {
					rows = append([]byte(nil), rowsMember(t, body)...)
				} else if got := rowsMember(t, body); !bytes.Equal(got, rows) {
					t.Errorf("seed %d: %s: reply %d rows differ from the streamed ones:\n got %s\nwant %s", seed, stmt, j, got, rows)
				}
			}
		}
		n := int64(len(c.Statements))
		if served, filled, skipped := bodyOutcomes(reg); served != 2*n || filled != n || skipped != 0 {
			t.Errorf("seed %d: %d statements: %d served, %d filled, %d skipped", seed, n, served, filled, skipped)
		}
	}
	for _, k := range []string{"Constant", "External", "Sibling", "Past", "Ancestor"} {
		if kinds[k] == 0 {
			t.Errorf("no %s statement among the generated ones: %v", k, kinds)
		}
	}
}

const largeStatement = `with SALES by product, city, month assess quantity against 100 labels quartiles`

// salesSession registers a generated SALES cube of the given size.
func salesSession(t testing.TB, rows int) (*core.Session, *sales.Dataset) {
	t.Helper()
	session := core.NewSession()
	ds := sales.Generate(rows, 1)
	if err := session.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	return session, ds
}

func cacheStats(t testing.TB, session *core.Session) (bytes, bodyBytes, budget int64) {
	t.Helper()
	st, ok := session.CacheStats()
	if !ok {
		t.Fatal("session has no cache")
	}
	return st.Bytes, st.BodyBytes, st.BudgetBytes
}

// TestBodyDroppedOnGenerationBump: an append and a materialization each
// invalidate the entry, and its rows go with it — the next reply is
// evaluated and streamed, and the one after fills them again.
func TestBodyDroppedOnGenerationBump(t *testing.T) {
	session, ds := salesSession(t, 5000)
	h, reg, _, _ := cachedHandler(t, session, 0)
	cacheOf := func(body []byte) string {
		var out struct{ Cache string }
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.Cache
	}
	warm := func() []byte {
		t.Helper()
		miss := serve(t, h, largeStatement, false)
		if cacheOf(miss) != "miss" {
			t.Fatalf("cache = %q, want miss", cacheOf(miss))
		}
		if _, kept, _ := cacheStats(t, session); kept != 0 {
			t.Fatalf("%d body bytes survive an invalidated entry", kept)
		}
		serve(t, h, largeStatement, false)
		hit := serve(t, h, largeStatement, false)
		if _, kept, _ := cacheStats(t, session); cacheOf(hit) != "hit" || kept != int64(len(rowsMember(t, hit))) {
			t.Fatalf("cache = %q with %d body bytes kept, rows take %d", cacheOf(hit), kept, len(rowsMember(t, hit)))
		}
		return rowsMember(t, hit)
	}
	before := warm()

	keys := make([]int32, len(ds.Fact.Keys))
	for h := range keys {
		keys[h] = ds.Fact.Keys[h][0]
	}
	vals := make([]float64, len(ds.Fact.Meas))
	for m := range vals {
		vals[m] = 1e6
	}
	if err := ds.Fact.Append(keys, vals); err != nil {
		t.Fatal(err)
	}
	if after := warm(); bytes.Equal(before, after) {
		t.Error("rows after an append are the rows from before it")
	}

	if err := session.Materialize("SALES", "product", "city", "month"); err != nil {
		t.Fatal(err)
	}
	warm()
	if served, filled, skipped := bodyOutcomes(reg); served != 3 || filled != 3 || skipped != 0 {
		t.Errorf("%d served, %d filled, %d skipped over three generations", served, filled, skipped)
	}
}

// TestBodyOverBudgetStillStreams: the result fits the budget, its rows do
// not. Hits are then encoded from the cube, as before there were bodies,
// and the cache stays within its budget.
func TestBodyOverBudgetStillStreams(t *testing.T) {
	probe, _ := salesSession(t, 50000)
	h, _, _, _ := cachedHandler(t, probe, 0)
	want := serve(t, h, largeStatement, false)
	cube, _, _ := cacheStats(t, probe)
	if rows := int64(len(rowsMember(t, want))); rows <= cube {
		t.Fatalf("rows of %d bytes are not larger than their cube of %d: the budget below admits both", rows, cube)
	}

	session, _ := salesSession(t, 50000)
	h, reg, _, _ := cachedHandler(t, session, cube+1024)
	serve(t, h, largeStatement, false)
	for i := 0; i < 3; i++ {
		got := serve(t, h, largeStatement, false)
		if !bytes.Equal(rowsMember(t, got), rowsMember(t, want)) || !bytes.Contains(got, []byte(`"cache":"hit"`)) {
			t.Fatalf("hit %d does not carry the result's rows", i)
		}
	}
	held, kept, budget := cacheStats(t, session)
	if kept != 0 || held > budget || held == 0 {
		t.Errorf("cache holds %d bytes, %d of them rows, under a budget of %d", held, kept, budget)
	}
	if served, filled, skipped := bodyOutcomes(reg); served != 0 || filled != 0 || skipped != 3 {
		t.Errorf("%d served, %d filled, %d skipped", served, filled, skipped)
	}
}

// TestFirstHitConcurrent sends 8 requests at an entry whose rows nobody
// has encoded yet. One of them does; all 8 replies carry the same rows,
// and one copy is kept. Run with -race.
func TestFirstHitConcurrent(t *testing.T) {
	session, _ := salesSession(t, 20000)
	h, reg, _, _ := cachedHandler(t, session, 0)
	want := rowsMember(t, serve(t, h, largeStatement, false))

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqBody, _ := json.Marshal(map[string]any{"statement": largeStatement})
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
			if i := bytes.Index(rec.Body.Bytes(), []byte(`,"rows":[`)); rec.Code != http.StatusOK || i < 0 || !bytes.Equal(rec.Body.Bytes()[i:], want) {
				t.Errorf("status %d, rows differ from the streamed ones", rec.Code)
			}
		}()
	}
	close(start)
	wg.Wait()
	served, filled, skipped := bodyOutcomes(reg)
	if filled != 1 || served+filled+skipped != 8 {
		t.Errorf("%d served, %d filled, %d skipped of 8 hits, want exactly one fill", served, filled, skipped)
	}
	if _, kept, _ := cacheStats(t, session); kept != int64(len(want)) {
		t.Errorf("%d body bytes kept, one copy of the rows takes %d", kept, len(want))
	}
}

// TestWriteErrorOnRetainedBody drops the client partway through a reply
// served from kept rows: it counts like a failed streamed write, and the
// slow log records the bytes that got out.
func TestWriteErrorOnRetainedBody(t *testing.T) {
	session, _ := salesSession(t, 20000)
	h, reg, slow, sink := cachedHandler(t, session, 0)
	serve(t, h, largeStatement, false)
	full := len(serve(t, h, largeStatement, false)) // fills

	reqBody, _ := json.Marshal(map[string]any{"statement": largeStatement})
	limit := full / 2
	w := &failingWriter{header: http.Header{}, limit: limit}
	h.ServeHTTP(w, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
	if w.writes != 2 || w.written != limit {
		t.Errorf("%d writes delivering %d bytes, want 2 (the header, the failed rows) and %d", w.writes, w.written, limit)
	}
	if got := reg.Counter("assess_server_write_errors_total", "").Value(); got != 1 {
		t.Errorf("assess_server_write_errors_total = %d, want 1", got)
	}
	if served, _, _ := bodyOutcomes(reg); served != 1 {
		t.Errorf("%d replies served from kept rows, want 1", served)
	}
	if err := slow.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	var last obsv.SlowEntry
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(lines) != 3 {
		t.Fatalf("%d slow-log lines, last one: %v", len(lines), err)
	}
	if last.Bytes != int64(limit) || last.Cache != "hit" {
		t.Errorf("slow entry of the failed reply = %+v, want %d bytes of a hit", last, limit)
	}
}

// TestBodyObservability reads the new series, the /stats fields, the
// probe note and the slow-log entry of a reply served from kept rows.
func TestBodyObservability(t *testing.T) {
	session, _ := salesSession(t, 5000)
	h, _, slow, sink := cachedHandler(t, session, 0)
	serve(t, h, largeStatement, false)
	serve(t, h, largeStatement, false)
	body := serve(t, h, largeStatement, true)

	var traced struct {
		Cells int
		Trace *obsv.SpanJSON
	}
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	notes := map[string]string{}
	var walk func(s *obsv.SpanJSON)
	walk = func(s *obsv.SpanJSON) {
		notes[s.Name] = s.Note
		for i := range s.Children {
			walk(&s.Children[i])
		}
	}
	walk(traced.Trace)
	if notes["cache.probe"] != "hit bytes" {
		t.Errorf("cache.probe note = %q, want %q", notes["cache.probe"], "hit bytes")
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	kept := len(rowsMember(t, body))
	for _, want := range []string{
		`assess_cache_body_total{outcome="served"} 1`,
		`assess_cache_body_total{outcome="filled"} 1`,
		`assess_cache_body_total{outcome="skipped"} 0`,
		`assess_cache_body_bytes ` + strconv.Itoa(kept),
		`assess_cache_rejected_total 0`,
		// The miss and the hit that filled were encoded; the served hit was not.
		`assess_server_encode_bodies_total{endpoint="/assess",mode="inline"} 2`,
		`assess_server_encode_bodies_total{endpoint="/assess",mode="parallel"} 0`,
	} {
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
	if _, ok := stats.Cache["rejected"]; !ok || stats.Cache["bodyBytes"] != int64(kept) || stats.Cache["bytes"] <= int64(kept) {
		t.Errorf("/stats cache section = %v, want rejected and %d bodyBytes within bytes", stats.Cache, kept)
	}

	if err := slow.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d slow-log lines, want 3", len(lines))
	}
	var last obsv.SlowEntry
	for i, wantWorkers := range []int{1, 1, 0} { // streamed, filled, served from kept rows
		last = obsv.SlowEntry{}
		if err := json.Unmarshal([]byte(lines[i]), &last); err != nil {
			t.Fatal(err)
		}
		if last.EncodeWorkers != wantWorkers {
			t.Errorf("slow entry %d: encodeWorkers %d, want %d", i, last.EncodeWorkers, wantWorkers)
		}
	}
	if last.Cache != "hit" || last.Bytes != int64(len(body)) || last.Cells != traced.Cells || last.Cells == 0 ||
		last.EncodeMs <= 0 || last.EncodeMs > last.TotalMs {
		t.Errorf("slow entry of a reply served from kept rows = %+v (body of %d bytes, %d cells)", last, len(body), traced.Cells)
	}
}

// TestRejectedResultIsCounted: a result larger than the whole budget is
// evaluated, answered and not cached, and /stats says so.
func TestRejectedResultIsCounted(t *testing.T) {
	session, _ := salesSession(t, 5000)
	h, _, _, _ := cachedHandler(t, session, 1024)
	for i := 0; i < 2; i++ {
		if body := serve(t, h, largeStatement, false); !bytes.Contains(body, []byte(`"cache":"miss"`)) {
			t.Fatalf("reply %d of a result that cannot be cached is not a miss", i)
		}
	}
	st, _ := session.CacheStats()
	if st.Rejected != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats = %+v, want 2 rejected results and an empty cache", st)
	}
}

// discardWriter is a client that reads nothing: the benchmarks below time
// the handler, not a recorder growing a buffer.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkAssessHit times a whole /assess request that hits the cache —
// parse, bind, plan, probe, header, body — served from the rows kept with
// the entry, against the same hit encoded from the cube (the reference: a
// cache whose budget admits the cube but not its rows, so no entry ever
// keeps any). "speedup" is the paired ratio, as in BenchmarkEncodeAssess;
// at 100 cells the statement's own parse and bind dominate both sides.
func BenchmarkAssessHit(b *testing.B) {
	ds := ssb.Generate(0.2, 1)
	const labels = `labels {[0, 0.8): behind, [0.8, 1.2]: onTarget, (1.2, inf): ahead}`
	for _, tc := range []struct {
		cells int
		by    string
	}{
		{100, `for year in ('1993', '1994', '1995', '1996') by cnation, year`},
		{42000, `by customer, year`},
	} {
		cells := tc.cells
		stmt := `with LINEORDER ` + tc.by + ` assess revenue against 1000000 using ratio(revenue, benchmark.revenue) ` + labels
		b.Run("cells="+strconv.Itoa(cells), func(b *testing.B) {
			reqBody, _ := json.Marshal(map[string]any{"statement": stmt})
			// warm builds a server whose cache holds stmt's result and has
			// answered two hits of it, and reports what the entry keeps.
			warm := func(budget int64) (request func(), cube, rows int64) {
				session := core.NewSession()
				if err := session.RegisterCube("LINEORDER", ds.Fact); err != nil {
					b.Fatal(err)
				}
				h, _, _, _ := cachedHandler(b, session, budget)
				request = func() {
					h.ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
				}
				if got := bytes.Count(serve(b, h, stmt, false), []byte(`{"coordinate":`)); got != cells {
					b.Fatalf("%d cells, want %d", got, cells)
				}
				cube, _, _ = cacheStats(b, session)
				request()
				request()
				_, rows, _ = cacheStats(b, session)
				return request, cube, rows
			}
			kept, cube, rows := warm(0)
			streamed, _, none := warm(cube)
			if rows == 0 || none != 0 {
				b.Fatalf("rows kept: %d bytes by the default cache, %d by the one of %d bytes", rows, none, cube)
			}
			benchmarkEncode(b, kept, streamed)
		})
	}
}
