package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/oracle"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/sales"
)

// The reference: the response structs the handlers marshalled with
// encoding/json before the columnar encoder replaced them. The encoder's
// contract is to produce exactly these bytes.

type resultRow struct {
	Coordinate []string `json:"coordinate"`
	Measure    *float64 `json:"measure"`
	Benchmark  *float64 `json:"benchmark"`
	Comparison *float64 `json:"comparison"`
	Label      string   `json:"label"`
}

type assessResponse struct {
	Strategy       string             `json:"strategy"`
	Cells          int                `json:"cells"`
	TotalMs        float64            `json:"totalMs"`
	Breakdown      map[string]float64 `json:"breakdownMs"`
	Cache          string             `json:"cache,omitempty"`
	Partial        bool               `json:"partial,omitempty"`
	DegradedShards []string           `json:"degradedShards,omitempty"`
	Trace          *obsv.SpanJSON     `json:"trace,omitempty"`
	Rows           []resultRow        `json:"rows"`
}

type queryResponse struct {
	Levels         []string         `json:"levels"`
	Measures       []string         `json:"measures"`
	Cells          int              `json:"cells"`
	TotalMs        float64          `json:"totalMs"`
	Partial        bool             `json:"partial,omitempty"`
	DegradedShards []string         `json:"degradedShards,omitempty"`
	Trace          *obsv.SpanJSON   `json:"trace,omitempty"`
	Rows           []map[string]any `json:"rows"`
}

func jsonFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func referenceJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceAssess is the old /assess handler tail over the same columns.
func referenceAssess(t testing.TB, head assessHeader, c exec.Columns) []byte {
	var buf bytes.Buffer
	referenceAssessTo(t, &buf, head, c)
	return buf.Bytes()
}

func referenceAssessTo(t testing.TB, w io.Writer, head assessHeader, c exec.Columns) {
	resp := assessResponse{
		Strategy: head.Strategy, Cells: head.Cells, TotalMs: head.TotalMs, Breakdown: head.Breakdown,
		Cache: head.Cache, Partial: head.Partial, DegradedShards: head.DegradedShards, Trace: head.Trace,
		Rows: make([]resultRow, len(c.Coords)),
	}
	for i, coord := range c.Coords {
		names := make([]string, len(coord))
		for p, id := range coord {
			names[p] = c.Dicts[p].Name(id)
		}
		bench := math.NaN()
		if c.Benchmark != nil {
			bench = c.Benchmark[i]
		}
		label := labeling.NullLabel
		if c.Labels != nil {
			label = c.Labels[i]
		}
		resp.Rows[i] = resultRow{names, jsonFloat(c.Measure[i]), jsonFloat(bench), jsonFloat(c.Comparison[i]), label}
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		t.Fatal(err)
	}
}

// queryTable is a derived cube reduced to what a /query body shows.
type queryTable struct {
	levels []string
	dicts  []*mdm.Dict
	coords []mdm.Coordinate
	names  []string
	cols   [][]float64
}

// referenceQuery is the old /query handler tail, except that levels and
// rows start empty rather than nil (the "rows":null / "levels":null fix).
func referenceQuery(t testing.TB, head queryHeader, q queryTable) []byte {
	var buf bytes.Buffer
	referenceQueryTo(t, &buf, head, q)
	return buf.Bytes()
}

func referenceQueryTo(t testing.TB, w io.Writer, head queryHeader, q queryTable) {
	resp := queryResponse{
		Levels: append([]string{}, q.levels...), Measures: head.Measures, Cells: head.Cells, TotalMs: head.TotalMs,
		Partial: head.Partial, DegradedShards: head.DegradedShards, Trace: head.Trace,
		Rows: []map[string]any{},
	}
	for i, coord := range q.coords {
		row := map[string]any{}
		for p, id := range coord {
			row[q.levels[p]] = q.dicts[p].Name(id)
		}
		for j, name := range q.names {
			row[name] = jsonFloat(q.cols[j][i])
		}
		resp.Rows = append(resp.Rows, row)
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		t.Fatal(err)
	}
}

// encodeAssess and encodeQuery are the new handler tails: marshal the
// header, stream the rows.
func encodeAssess(t testing.TB, head assessHeader, c exec.Columns) []byte {
	var out bytes.Buffer
	encodeAssessTo(t, &out, head, c)
	return out.Bytes()
}

func encodeAssessTo(t testing.TB, w io.Writer, head assessHeader, c exec.Columns) {
	buf, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encodeBody(w, buf, c.Dicts, func(e *encoder) { e.assessRows(c) }); err != nil {
		t.Fatal(err)
	}
}

func encodeQuery(t testing.TB, head queryHeader, q queryTable) []byte {
	var out bytes.Buffer
	encodeQueryTo(t, &out, head, q)
	return out.Bytes()
}

func encodeQueryTo(t testing.TB, w io.Writer, head queryHeader, q queryTable) {
	buf, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	fields := queryFields(q.levels, q.names, q.cols)
	if _, err := encodeBody(w, buf, q.dicts, func(e *encoder) { e.queryRows(fields, q.coords) }); err != nil {
		t.Fatal(err)
	}
}

// hostileFloats are the values where float formatting has an edge:
// nulls, the sign of zero, both switches to 'e' notation, the exponent
// clean-up, the integer fast path's limits, denormals and the extremes.
var hostileFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3,
	1e21, 9.999999999999999e20, -1e21, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1 << 53, 1<<53 - 1, -(1 << 53), 1<<53 + 2, 1e15, 123456789012345680, 1e20, 42, -7, 1234567.25,
}

// hostileNames are member names that need every escape encoding/json
// knows, and some that merely look as if they did.
var hostileNames = []string{
	"", "plain", `quo"te`, `back\slash`, "tab\there", "nl\nr\rbs\bff\f", "ctl\x00\x01\x1f\x7f",
	"<script>&amp;</script>", "line\u2028sep\u2029end", "bad\xffutf8\xc0\xaf", "trunc\xe2\x80", "\xed\xa0\x80",
	"caf\u00e9 \u4e16\u754c \U0001F600", "\ufffd", strings.Repeat("long ", 40),
}

func hostileColumns() exec.Columns {
	d0, d1 := mdm.NewDict(), mdm.NewDict()
	for _, n := range hostileNames {
		d0.Intern(n)
		d1.Intern(n + "'")
	}
	n := len(hostileFloats)
	c := exec.Columns{
		Dicts:      []*mdm.Dict{d0, d1},
		Coords:     make([]mdm.Coordinate, n),
		Measure:    make([]float64, n),
		Benchmark:  make([]float64, n),
		Comparison: make([]float64, n),
		Labels:     make([]string, n),
	}
	for i := range c.Coords {
		c.Coords[i] = mdm.Coordinate{int32(i % len(hostileNames)), int32((i * 7) % len(hostileNames))}
		c.Measure[i] = hostileFloats[i]
		c.Benchmark[i] = hostileFloats[(i+1)%n]
		c.Comparison[i] = hostileFloats[(i+5)%n]
		c.Labels[i] = hostileNames[(i*3)%len(hostileNames)]
	}
	return c
}

func TestEncodeAssessMatchesEncodingJSON(t *testing.T) {
	hostile := hostileColumns()
	noBench, noLabels := hostile, hostile
	noBench.Benchmark, noLabels.Labels = nil, nil
	zeroLevel := exec.Columns{
		Dicts: []*mdm.Dict{}, Coords: []mdm.Coordinate{{}},
		Measure: []float64{1}, Comparison: []float64{2}, Labels: []string{"ok"},
	}
	empty := exec.Columns{Dicts: hostile.Dicts}
	trace := &obsv.SpanJSON{Name: "request", DurationMs: 1.25, Children: []obsv.SpanJSON{{Name: "parse", Note: "<n>"}}}
	plain := assessHeader{Strategy: "POP", Cells: 3, TotalMs: 0.5, Breakdown: map[string]float64{"Get C": 1e-7, "Label": 2}}
	full := assessHeader{
		Strategy: "NP", Cells: 1 << 20, TotalMs: 1e21, Breakdown: map[string]float64{}, Cache: "hit",
		Partial: true, DegradedShards: []string{"LINEORDER/1", `a"b`}, Trace: trace,
	}
	for _, tc := range []struct {
		name string
		head assessHeader
		cols exec.Columns
	}{
		{"hostile", plain, hostile},
		{"no benchmark column", plain, noBench},
		{"nil labels", plain, noLabels},
		{"zero-level group-by", plain, zeroLevel},
		{"empty cube", plain, empty},
		{"partial, degraded shards, trace", full, hostile},
	} {
		if got, want := encodeAssess(t, tc.head, tc.cols), referenceAssess(t, tc.head, tc.cols); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

func TestEncodeQueryMatchesEncodingJSON(t *testing.T) {
	h := hostileColumns()
	hostile := queryTable{
		levels: []string{"pro<duct", "coun\"try"}, dicts: h.Dicts, coords: h.Coords,
		names: []string{"zeta", "Alpha", "m&m", "\xff"}, cols: [][]float64{h.Measure, h.Benchmark, h.Comparison, h.Measure},
	}
	// A measure named like a level replaces it, and of two columns with
	// one name the later wins, as in the map the old handler filled.
	clash := hostile
	clash.levels = []string{"zeta", "dup"}
	clash.names = []string{"zeta", "dup", "m", "m"}
	sameLevels := hostile
	sameLevels.levels = []string{"l", "l"}
	zeroLevel := queryTable{
		levels: nil, dicts: nil, coords: []mdm.Coordinate{{}}, names: []string{"quantity"}, cols: [][]float64{{7}},
	}
	nothing := queryTable{coords: []mdm.Coordinate{{}, {}}}
	empty := queryTable{levels: hostile.levels, dicts: h.Dicts, names: []string{"q"}, cols: [][]float64{nil}}
	plain := queryHeader{Levels: []string{"product", "country"}, Measures: []string{"quantity"}, Cells: 2, TotalMs: 0.25}
	full := queryHeader{
		Levels: []string{}, Measures: nil, TotalMs: 3, Partial: true, DegradedShards: []string{"F/0"},
		Trace: &obsv.SpanJSON{Name: "request", Bytes: 12},
	}
	for _, tc := range []struct {
		name string
		head queryHeader
		q    queryTable
	}{
		{"hostile", plain, hostile},
		{"measure named like a level", plain, clash},
		{"two levels with one name", plain, sameLevels},
		{"zero-level group-by", plain, zeroLevel},
		{"rows without members", plain, nothing},
		{"empty cube", plain, empty},
		{"partial, degraded shards, trace", full, hostile},
	} {
		tc.head.Levels = append([]string{}, tc.q.levels...)
		if got, want := encodeQuery(t, tc.head, tc.q), referenceQuery(t, tc.head, tc.q); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestEncodeLargeBodyFlushes crosses the flush mark many times, with the
// name cache in use, and still matches the reference.
func TestEncodeLargeBodyFlushes(t *testing.T) {
	cols := syntheticColumns(20000)
	head := assessHeader{Strategy: "NP", Cells: 20000, Breakdown: map[string]float64{}}
	got, want := encodeAssess(t, head, cols), referenceAssess(t, head, cols)
	if len(got) < 10*bodyFlushBytes {
		t.Fatalf("body of %d bytes does not exercise flushing", len(got))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("large body differs from encoding/json")
	}
}

// syntheticColumns shapes a result like the benchmark's unsliced
// customer × year Constant: n cells, 7 per customer, float measures.
func syntheticColumns(n int) exec.Columns {
	customers, years := mdm.NewDict(), mdm.NewDict()
	for i := 0; i < 7; i++ {
		years.Intern(fmt.Sprint(1992 + i))
	}
	c := exec.Columns{
		Dicts:      []*mdm.Dict{customers, years},
		Coords:     make([]mdm.Coordinate, n),
		Measure:    make([]float64, n),
		Benchmark:  make([]float64, n),
		Comparison: make([]float64, n),
		Labels:     make([]string, n),
	}
	for i := range c.Coords {
		if i%7 == 0 {
			customers.Intern(fmt.Sprintf("Customer#%09d", i/7))
		}
		c.Coords[i] = mdm.Coordinate{int32(i / 7), int32(i % 7)}
		c.Measure[i] = float64(1000000+i*37) + 0.25*float64(i%4)
		c.Benchmark[i] = 2500000
		c.Comparison[i] = c.Measure[i] / c.Benchmark[i]
		c.Labels[i] = [...]string{"low", "mid", "high"}[i%3]
	}
	return c
}

// oracleSession registers the oracle's generated cubes as assessd would.
func oracleSession(t testing.TB, c *oracle.Case) *core.Session {
	t.Helper()
	s := core.NewSession()
	if err := s.RegisterCube(oracle.TargetCube, c.Fact); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterCube(oracle.ExtCube, c.ExtFact); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBodiesAreEncodingJSONFixedPoints serves oracle-generated statements
// of all six kinds (the five benchmark kinds over /assess, get over
// /query) and checks each body, as the client received it, against
// encoding/json: decoded into the old response struct and encoded again,
// it must come back byte for byte.
func TestBodiesAreEncodingJSONFixedPoints(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		c := oracle.Generate(seed)
		session := oracleSession(t, c)
		srv := httptest.NewServer(New(session).Handler())
		for _, stmt := range c.Statements {
			kind, err := session.BenchmarkKind(stmt)
			if err != nil {
				t.Fatal(err)
			}
			kinds[kind.String()]++
			resp, body := post(t, srv, "/assess?trace=1", map[string]any{"statement": stmt})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: %s: status %d: %s", seed, stmt, resp.StatusCode, body)
			}
			var ar assessResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, stmt, err)
			}
			if ar.Cells != len(ar.Rows) || ar.Rows == nil {
				t.Errorf("seed %d: %s: cells %d, %d rows", seed, stmt, ar.Cells, len(ar.Rows))
			}
			if again := referenceJSON(t, ar); !bytes.Equal(body, again) {
				t.Errorf("seed %d: %s:\n got %s\nwant %s", seed, stmt, body, again)
			}

			// The same cube through get: the with/for/by prefix and the measure.
			st, err := parser.Parse(stmt)
			if err != nil {
				t.Fatal(err)
			}
			get := stmt[:strings.Index(stmt, " assess")] + " get " + st.Measure
			kinds["get"]++
			resp, body = post(t, srv, "/query", map[string]any{"statement": get})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: %s: status %d: %s", seed, get, resp.StatusCode, body)
			}
			var qr queryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, get, err)
			}
			if qr.Cells != len(qr.Rows) || qr.Rows == nil || qr.Levels == nil {
				t.Errorf("seed %d: %s: cells %d, rows %v, levels %v", seed, get, qr.Cells, qr.Rows, qr.Levels)
			}
			if again := referenceJSON(t, qr); !bytes.Equal(body, again) {
				t.Errorf("seed %d: %s:\n got %s\nwant %s", seed, get, body, again)
			}
		}
		srv.Close()
	}
	for _, k := range []string{"Constant", "External", "Sibling", "Past", "Ancestor", "get"} {
		if kinds[k] == 0 {
			t.Errorf("no %s statement among the generated ones: %v", k, kinds)
		}
	}
}

// TestQueryNeverEmitsNull is the regression test for "rows":null on an
// empty result and "levels":null on an empty group-by.
func TestQueryNeverEmitsNull(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/query", map[string]any{
		"statement": `with SALES for product = 'Apple', country = 'Spain' by product get quantity`,
	})
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"cells":0,`)) || !bytes.HasSuffix(body, []byte(`"rows":[]}`+"\n")) {
		t.Errorf("empty result: status %d: %s", resp.StatusCode, body)
	}

	// The language has no statement without group-by levels, but a cube
	// may: the grand total.
	total := cube.New(sales.Schema(), mdm.GroupBy{}, "quantity")
	total.MustAddCell(mdm.Coordinate{}, 42)
	head, dicts := queryHead(&core.QueryResult{Cube: total}, nil)
	q := queryTable{levels: head.Levels, dicts: dicts, coords: total.Coords, names: total.Names, cols: total.Cols}
	want := `{"levels":[],"measures":["quantity"],"cells":1,"totalMs":0,"rows":[{"quantity":42}]}` + "\n"
	if got := encodeQuery(t, head, q); string(got) != want {
		t.Errorf("grand total:\n got %s\nwant %s", got, want)
	}
}

func FuzzEncodeString(f *testing.F) {
	for _, s := range hostileNames {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json gives %s", s, got, want)
		}
	})
}

func FuzzEncodeFloat(f *testing.F) {
	for _, v := range hostileFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(jsonFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json gives %s", v, got, want)
		}
	})
}

// failingWriter is a client that goes away after limit bytes.
type failingWriter struct {
	header         http.Header
	limit, written int
	writes         int
}

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written = w.limit
		return n, errors.New("connection reset by peer")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteErrorStopsEncode drops the client partway through a large body:
// the handler must return after the failed write instead of formatting
// the remaining rows, and count the error.
func TestWriteErrorStopsEncode(t *testing.T) {
	session := core.NewSession()
	if err := session.RegisterCube("SALES", sales.Generate(20000, 1).Fact); err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	var sink bytes.Buffer
	slow := obsv.NewSlowLog(&sink, time.Nanosecond)
	handler := New(session, WithRegistry(reg), WithSlowLog(slow)).Handler()
	stmt := `with SALES by product, city, month assess quantity labels quartiles`
	reqBody, _ := json.Marshal(map[string]any{"statement": stmt})

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
	full := rec.Body.Len()
	if rec.Code != http.StatusOK || full < 4*bodyFlushBytes {
		t.Fatalf("status %d, body of %d bytes: want a 200 spanning several flushes", rec.Code, full)
	}

	limit := bodyFlushBytes + bodyFlushBytes/2 // inside the second write
	w := &failingWriter{header: http.Header{}, limit: limit}
	handler.ServeHTTP(w, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
	if w.writes != 2 {
		t.Errorf("%d writes after the client left at byte %d of %d, want 2 (one whole, one failed)", w.writes, limit, full)
	}
	if got := reg.Counter("assess_server_write_errors_total", "").Value(); got != 1 {
		t.Errorf("assess_server_write_errors_total = %d, want 1", got)
	}

	// Both requests are in the slow log, written after their bodies: the
	// entry knows the body's size, and encode time is part of the total.
	if err := slow.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d slow-log lines, want 2: %q", len(lines), sink.String())
	}
	for i, wantBytes := range []int64{int64(full), int64(limit)} {
		var e obsv.SlowEntry
		if err := json.Unmarshal([]byte(lines[i]), &e); err != nil {
			t.Fatal(err)
		}
		if e.Bytes != wantBytes || e.EncodeMs > e.TotalMs {
			t.Errorf("slow entry %d: bytes %d (want %d), encodeMs %v of totalMs %v", i, e.Bytes, wantBytes, e.EncodeMs, e.TotalMs)
		}
	}
}

// TestEgressMetrics checks the three body series reach /metrics.
func TestEgressMetrics(t *testing.T) {
	srv := newServer(t)
	post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	post(t, srv, "/query", map[string]any{"statement": `with SALES by product get quantity`})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`assess_server_encode_seconds_count{endpoint="/assess"}`,
		`assess_server_encode_seconds_count{endpoint="/query"}`,
		`assess_server_response_bytes_sum{endpoint="/assess"}`,
		`assess_server_response_bytes_sum{endpoint="/query"}`,
		`assess_server_write_errors_total 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestEncodeSharedResultConcurrently encodes one result from 8 goroutines
// at once, as cache hits do (they share the cube): under -race this
// proves the encoder only reads it, and every body must be the same.
func TestEncodeSharedResultConcurrently(t *testing.T) {
	session := core.NewSession()
	if err := session.RegisterCube("SALES", sales.Generate(20000, 1).Fact); err != nil {
		t.Fatal(err)
	}
	res, err := session.Exec(`with SALES by product, city, month assess quantity against 100 labels quartiles`)
	if err != nil {
		t.Fatal(err)
	}
	head := assessHeader{Strategy: res.Plan.Strategy.String(), Cells: res.Cube.Len(), Breakdown: map[string]float64{}}
	cols, err := res.Columns()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceAssess(t, head, cols)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cols, err := res.Columns()
				if err != nil {
					t.Error(err)
					return
				}
				if got := encodeAssess(t, head, cols); !bytes.Equal(got, want) {
					t.Error("concurrent encode differs from the reference")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncodeAllocsIndependentOfCells pins the encoder's allocations to
// the response, not the cell count: a pooled encoder formats any number
// of rows without allocating. The pool may hand out a fresh encoder at
// any time (after a GC; at random under -race), so the count is the
// least of several runs.
func TestEncodeAllocsIndependentOfCells(t *testing.T) {
	head := []byte(`{"cells":0}`)
	allocs := func(n int) float64 {
		cols := syntheticColumns(n)
		var out bytes.Buffer
		out.Grow(200 * n)
		least := math.Inf(1)
		for i := 0; i < 20; i++ {
			least = min(least, testing.AllocsPerRun(1, func() {
				out.Reset()
				if _, err := encodeBody(&out, head, cols.Dicts, func(e *encoder) { e.assessRows(cols) }); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if small, large := allocs(100), allocs(42000); large > small {
		t.Errorf("%.0f allocs for 42000 cells, %.0f for 100: allocations grow with the result", large, small)
	}
}

// Micro-benchmarks: the timed loop encodes b.N bodies with the columnar
// encoder; the same b.N bodies go through the encoding/json reference
// first, untimed, and the ratio of the two is reported as "speedup" (a
// paired, host-speed-independent metric; gated in CI with allocs/op).

func benchmarkEncode(b *testing.B, fast, reference func()) {
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		reference()
	}
	refTime := time.Since(t0)
	fast() // the reference's garbage has emptied the encoder pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fast()
	}
	b.ReportMetric(float64(refTime)/float64(b.Elapsed()), "speedup")
}

func BenchmarkEncodeAssess(b *testing.B) {
	for _, n := range []int{100, 42000} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			cols := syntheticColumns(n)
			head := assessHeader{Strategy: "NP", Cells: n, TotalMs: 27.5, Breakdown: map[string]float64{"Get C": 20.5, "Label": 6.4}}
			var out bytes.Buffer
			out.Grow(200 * n)
			benchmarkEncode(b,
				func() { out.Reset(); encodeAssessTo(b, &out, head, cols) },
				func() { out.Reset(); referenceAssessTo(b, &out, head, cols) })
		})
	}
}

func BenchmarkEncodeQuery(b *testing.B) {
	const n = 42000
	cols := syntheticColumns(n)
	q := queryTable{
		levels: []string{"customer", "year"}, dicts: cols.Dicts, coords: cols.Coords,
		names: []string{"revenue", "quantity"}, cols: [][]float64{cols.Measure, cols.Comparison},
	}
	head := queryHeader{Levels: q.levels, Measures: q.names, Cells: n, TotalMs: 20.5}
	var out bytes.Buffer
	out.Grow(200 * n)
	benchmarkEncode(b,
		func() { out.Reset(); encodeQueryTo(b, &out, head, q) },
		func() { out.Reset(); referenceQueryTo(b, &out, head, q) })
}
