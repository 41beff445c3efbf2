package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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

// encodeTo is the new handler tail: marshal the header, then stream the
// rows with the given number of workers.
func encodeTo(t testing.TB, w io.Writer, head any, b body, workers int) {
	buf, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encodeBody(context.Background(), w, buf, b, workers); err != nil {
		t.Fatal(err)
	}
}

// encodeAssess and encodeQuery are bodies as the handler goroutine
// encodes them on its own.
func encodeAssess(t testing.TB, head assessHeader, c exec.Columns) []byte {
	var out bytes.Buffer
	encodeTo(t, &out, head, assessBody(c), 1)
	return out.Bytes()
}

func (q queryTable) body() body {
	return queryBody(queryFields(q.levels, q.names, q.cols), q.dicts, q.coords)
}

func encodeQuery(t testing.TB, head queryHeader, q queryTable) []byte {
	var out bytes.Buffer
	encodeTo(t, &out, head, q.body(), 1)
	return out.Bytes()
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

// gridColumns is a result of n cells that mixes the hostile tables into
// the benchmark's shape: member names that need escaping among plain
// ones, each used by several cells, and every edge of float formatting,
// nulls included, in all three numeric columns.
func gridColumns(n int) exec.Columns {
	d0, d1 := mdm.NewDict(), mdm.NewDict()
	for _, name := range hostileNames {
		d0.Intern(name)
		d1.Intern(name + "'")
	}
	for i := 0; i < n/7; i++ {
		d0.Intern(fmt.Sprintf("Customer#%09d", i))
	}
	c := exec.Columns{
		Dicts:      []*mdm.Dict{d0, d1},
		Coords:     make([]mdm.Coordinate, n),
		Measure:    make([]float64, n),
		Benchmark:  make([]float64, n),
		Comparison: make([]float64, n),
		Labels:     make([]string, n),
	}
	for i := range c.Coords {
		c.Coords[i] = mdm.Coordinate{int32((i / 7) % d0.Len()), int32((i * 7) % d1.Len())}
		c.Measure[i] = hostileFloats[i%len(hostileFloats)] + float64(i/len(hostileFloats))/3
		c.Benchmark[i] = hostileFloats[(i+1)%len(hostileFloats)]
		c.Comparison[i] = c.Measure[i] / c.Benchmark[i]
		c.Labels[i] = hostileNames[(i*3)%len(hostileNames)]
	}
	return c
}

// TestEncodeIdentityGrid is the byte-identity contract of the one body
// driver at every worker count: bodies from empty to the benchmark's
// largest, on both sides of each chunk boundary, through /assess, /query
// and the rows a cache entry keeps, against encoding/json. The worker
// counts go to the driver as they are, past what body.workers would give
// a short body, so lanes with one chunk and lanes with none are covered.
func TestEncodeIdentityGrid(t *testing.T) {
	for _, n := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 4 * chunkRows, 42000} {
		cols := gridColumns(n)
		noBench, noLabels := cols, cols
		noBench.Benchmark, noLabels.Labels = nil, nil
		ahead := assessHeader{Strategy: "NP", Cells: n, TotalMs: 1.5, Breakdown: map[string]float64{"Get C": 1}}
		q := queryTable{
			levels: []string{"custo<mer", "year"}, dicts: cols.Dicts, coords: cols.Coords,
			names: []string{"zeta", "Alpha", "m&m"}, cols: [][]float64{cols.Measure, cols.Benchmark, cols.Comparison},
		}
		qhead := queryHeader{Levels: q.levels, Measures: q.names, Cells: n, TotalMs: 0.25}
		cases := []struct {
			name string
			head any
			b    body
			want []byte
		}{
			{"/assess", ahead, assessBody(cols), referenceAssess(t, ahead, cols)},
			{"/assess, no benchmark column", ahead, assessBody(noBench), referenceAssess(t, ahead, noBench)},
			{"/assess, nil labels", ahead, assessBody(noLabels), referenceAssess(t, ahead, noLabels)},
			{"/query", qhead, q.body(), referenceQuery(t, qhead, q)},
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, tc := range cases {
				var got bytes.Buffer
				encodeTo(t, &got, tc.head, tc.b, workers)
				if !bytes.Equal(got.Bytes(), tc.want) {
					t.Errorf("%s, %d cells, %d workers: body differs from encoding/json", tc.name, n, workers)
				}
				if _, assess := tc.head.(assessHeader); !assess {
					continue
				}
				// The same rows as a cache entry keeps them, behind a header.
				head, err := json.Marshal(ahead)
				if err != nil {
					t.Fatal(err)
				}
				tail := len(tc.want) - (len(head) - 1)
				rows := retainedRows(context.Background(), tc.b, tail, workers)
				if len(rows) != tail || cap(rows) != tail {
					t.Errorf("%s, %d cells, %d workers: %d retained bytes in an allocation of %d, measured %d",
						tc.name, n, workers, len(rows), cap(rows), tail)
				}
				got.Reset()
				if _, err := writeRetained(&got, head, rows); err != nil || !bytes.Equal(got.Bytes(), tc.want) {
					t.Errorf("%s, %d cells, %d workers: retained rows differ from encoding/json (%v)", tc.name, n, workers, err)
				}
			}
		}
	}
}

// TestEncodeWorkers is the rule that gives a body its workers: the
// statement's budget, but one for a body too short to pay for more, and
// never more than it has chunks.
func TestEncodeWorkers(t *testing.T) {
	for _, tc := range []struct{ rows, budget, want int }{
		{0, 8, 1},
		{(minParallelChunks - 1) * chunkRows, 8, 1},
		{(minParallelChunks-1)*chunkRows + 1, 8, minParallelChunks},
		{42000, 0, 1}, {42000, 1, 1}, {42000, 2, 2}, {42000, 1000, 83},
	} {
		if got := (body{n: tc.rows}).workers(tc.budget); got != tc.want {
			t.Errorf("%d rows under a budget of %d: %d workers, want %d", tc.rows, tc.budget, got, tc.want)
		}
	}
}

// TestEncodeWorkerPanicStaysInRequest puts a member id past its
// dictionary into a late chunk of a two-worker body. The panic is a
// worker's, which net/http's recover does not see; the driver must carry
// it to the handler goroutine, after both workers have stopped, so that
// it ends that connection and nothing else: a request encoding a sound
// body beside it, with workers of its own, is answered in full, and so is
// one that comes after.
func TestEncodeWorkerPanicStaysInRequest(t *testing.T) {
	good := syntheticColumns(20 * chunkRows)
	bad := syntheticColumns(20 * chunkRows)
	bad.Coords[15*chunkRows+7] = mdm.Coordinate{int32(bad.Dicts[0].Len()), 0}
	head := assessHeader{Strategy: "NP", Cells: len(good.Coords), Breakdown: map[string]float64{}}
	want := referenceAssess(t, head, good)

	inBad := make(chan struct{})
	var once sync.Once
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cols := good
		if r.URL.Path == "/bad" {
			cols = bad
			once.Do(func() { close(inBad) })
		}
		b := watch(assessBody(cols))
		defer func() {
			if !b.settled() {
				t.Errorf("%s: the handler went on before its workers had stopped", r.URL.Path)
			}
		}()
		encodeTo(t, w, head, b.body, 2)
	}))
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the panic, as net/http reports it
	srv.Start()
	defer srv.Close()

	get := func(path string) ([]byte, error) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	beside := make(chan []byte)
	go func() {
		<-inBad
		body, err := get("/good")
		if err != nil {
			t.Errorf("request beside the panic: %v", err)
		}
		beside <- body
	}()
	if body, err := get("/bad"); err == nil {
		t.Errorf("the body with the bad id arrived whole, %d bytes: the panic did not reach the handler", len(body))
	}
	if body := <-beside; !bytes.Equal(body, want) {
		t.Error("request beside the panic: body differs from encoding/json")
	}
	if body, err := get("/good"); err != nil || !bytes.Equal(body, want) {
		t.Errorf("request after the panic: %v, body differs from encoding/json", err)
	}
}

// watched wraps b so that a test sees which rows have been formatted:
// past is the end of the furthest range begun, active the ranges being
// formatted right now.
type watched struct {
	body
	past   atomic.Int64
	active atomic.Int64
	// closed is set by the test once encodeBody has returned; a range
	// begun after that is a worker that outlived its body.
	closed atomic.Bool
	late   atomic.Bool
}

func watch(b body) *watched {
	w := &watched{body: b}
	rows := b.rows
	w.rows = func(e *encoder, lo, hi int) {
		if w.closed.Load() {
			w.late.Store(true)
		}
		w.active.Add(1)
		for {
			past := w.past.Load()
			if int64(hi) <= past || w.past.CompareAndSwap(past, int64(hi)) {
				break
			}
		}
		defer w.active.Add(-1)
		rows(e, lo, hi)
	}
	return w
}

// settled reports, after encodeBody has returned, whether every worker
// had returned with it.
func (w *watched) settled() bool {
	w.closed.Store(true)
	return w.active.Load() == 0 && !w.late.Load()
}

// window is how far past the chunk being written a body of that many
// workers may have been formatted: each lane holds laneChunks.
func window(workers int) int64 { return int64(laneChunks * workers * chunkRows) }

// windowWriter checks, at every write, that formatting is no further
// ahead of it than the window, then passes the chunk on.
type windowWriter struct {
	t       *testing.T
	w       *watched
	workers int
	writes  int
	out     io.Writer
	// before runs ahead of the write with its ordinal and may fail it.
	before func(k int) error
}

func (ww *windowWriter) Write(p []byte) (int, error) {
	k := ww.writes
	ww.writes++
	if past, limit := ww.w.past.Load(), int64(k*chunkRows)+window(ww.workers); past > limit {
		ww.t.Errorf("writing chunk %d with rows up to %d formatted, window ends at %d", k, past, limit)
	}
	if ww.before != nil {
		if err := ww.before(k); err != nil {
			return 0, err
		}
	}
	return ww.out.Write(p)
}

// TestEncodeLargeBodyFlushes writes a body of many chunks, with the name
// cache in use, alone and with workers: the bytes match the reference,
// the chunks leave one write each, and the first leaves while most rows
// are still unformatted — at no write is formatting further ahead than
// the window.
func TestEncodeLargeBodyFlushes(t *testing.T) {
	const n = 20000
	cols := syntheticColumns(n)
	head := assessHeader{Strategy: "NP", Cells: n, Breakdown: map[string]float64{}}
	want := referenceAssess(t, head, cols)
	for _, workers := range []int{1, 2, 4} {
		b := watch(assessBody(cols))
		var got bytes.Buffer
		ww := &windowWriter{t: t, w: b, workers: workers, out: &got}
		encodeTo(t, ww, head, b.body, workers)
		if !b.settled() {
			t.Errorf("%d workers: a worker outlived the body", workers)
		}
		if chunks := b.chunks(); chunks < 10*laneChunks || ww.writes != chunks {
			t.Errorf("%d workers: %d writes for %d chunks, want one each and many", workers, ww.writes, chunks)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%d workers: large body differs from encoding/json", workers)
		}
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
		return n, errClientGone
	}
	w.written += len(p)
	return len(p), nil
}

// hookWriter is a client that accepts every write after showing it to
// seen.
type hookWriter struct {
	header http.Header
	writes int
	seen   func(p []byte)
}

func (w *hookWriter) Header() http.Header { return w.header }
func (w *hookWriter) WriteHeader(int)     {}
func (w *hookWriter) Write(p []byte) (int, error) {
	w.writes++
	w.seen(p)
	return len(p), nil
}

// stopsWithinWindow encodes a body of 40 chunks whose write k goes wrong
// as before says, for 1, 2 and 4 workers: the error comes back, write k
// is the last, and no worker is still running when encodeBody returns.
// lost is the first chunk that is not written in full — k when its write
// fails, k+1 when the request is cancelled during it — and no row past
// the window of that chunk is ever formatted.
func stopsWithinWindow(t *testing.T, k, lost int, before func(cancel context.CancelFunc) error, want error) {
	cols := syntheticColumns(40 * chunkRows)
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		b := watch(assessBody(cols))
		ww := &windowWriter{t: t, w: b, workers: workers, out: io.Discard, before: func(at int) error {
			if at == k {
				return before(cancel)
			}
			return nil
		}}
		_, err := encodeBody(ctx, ww, []byte("{}"), b.body, workers)
		settled, past := b.settled(), b.past.Load()
		cancel()
		if !errors.Is(err, want) {
			t.Errorf("%d workers: error %v, want %v", workers, err, want)
		}
		if !settled {
			t.Errorf("%d workers: encodeBody returned before its workers", workers)
		}
		if limit := int64(lost*chunkRows) + window(workers); past > limit || ww.writes != k+1 {
			t.Errorf("%d workers: stopped at write %d of %d with rows up to %d formatted, window ends at %d",
				workers, k, ww.writes, past, limit)
		}
	}
}

var errClientGone = errors.New("connection reset by peer")

// TestWriteErrorStopsEncode drops the client partway through a large body:
// the encoder must return after the failed write instead of formatting
// the remaining rows, with every worker stopped, and the handler counts
// the error once.
func TestWriteErrorStopsEncode(t *testing.T) {
	stopsWithinWindow(t, 3, 3, func(context.CancelFunc) error { return errClientGone }, errClientGone)

	stmt := `with SALES by product, city, month assess quantity labels quartiles`
	reqBody, _ := json.Marshal(map[string]any{"statement": stmt})
	for _, workers := range []int{1, 2, 4} {
		session := core.NewSession()
		if err := session.RegisterCube("SALES", sales.Generate(20000, 1).Fact); err != nil {
			t.Fatal(err)
		}
		session.Engine.SetParallelism(workers)
		reg := obsv.NewRegistry()
		var sink bytes.Buffer
		slow := obsv.NewSlowLog(&sink, time.Nanosecond)
		handler := New(session, WithRegistry(reg), WithSlowLog(slow)).Handler()

		var sizes []int
		full := 0
		whole := &hookWriter{header: http.Header{}, seen: func(p []byte) { sizes, full = append(sizes, len(p)), full+len(p) }}
		handler.ServeHTTP(whole, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
		if len(sizes) < 2*minParallelChunks {
			t.Fatalf("body written in %d chunks: want many", len(sizes))
		}

		limit := sizes[0] + sizes[1]/2 // inside the second write
		w := &failingWriter{header: http.Header{}, limit: limit}
		handler.ServeHTTP(w, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
		if w.writes != 2 {
			t.Errorf("%d workers: %d writes after the client left at byte %d of %d, want 2 (one whole, one failed)", workers, w.writes, limit, full)
		}
		if got := reg.Counter("assess_server_write_errors_total", "").Value(); got != 1 {
			t.Errorf("%d workers: assess_server_write_errors_total = %d, want 1", workers, got)
		}

		// Both requests are in the slow log, written after their bodies: the
		// entry knows the body's size and who encoded it, and encode time is
		// part of the total.
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
			if e.Bytes != wantBytes || e.EncodeMs > e.TotalMs || e.EncodeWorkers != workers {
				t.Errorf("slow entry %d: bytes %d (want %d), encodeMs %v of totalMs %v, encodeWorkers %d (want %d)",
					i, e.Bytes, wantBytes, e.EncodeMs, e.TotalMs, e.EncodeWorkers, workers)
			}
		}
	}
}

// TestEncodeCancelStopsEncode cancels the request partway through a large
// body — from inside a write, so the point is exact: the next chunk is
// not written, the encode ends as after a failed write, and the handler
// counts a body it abandoned the same way.
func TestEncodeCancelStopsEncode(t *testing.T) {
	stopsWithinWindow(t, 3, 4, func(cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled)

	session := core.NewSession()
	if err := session.RegisterCube("SALES", sales.Generate(20000, 1).Fact); err != nil {
		t.Fatal(err)
	}
	session.Engine.SetParallelism(2)
	reg := obsv.NewRegistry()
	handler := New(session, WithRegistry(reg)).Handler()
	reqBody, _ := json.Marshal(map[string]any{"statement": `with SALES by product, city, month assess quantity labels quartiles`})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &hookWriter{header: http.Header{}, seen: func([]byte) { cancel() }} // cancelled while its first chunk is written
	handler.ServeHTTP(w, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)).WithContext(ctx))
	if w.writes != 1 {
		t.Errorf("%d writes under a context cancelled in the first, want 1", w.writes)
	}
	if got := reg.Counter("assess_server_write_errors_total", "").Value(); got != 1 {
		t.Errorf("assess_server_write_errors_total = %d, want 1", got)
	}
}

// TestEgressMetrics checks the body series reach /metrics, and that the
// mode counter tells a body the statement's workers formatted from one the
// handler goroutine formatted alone.
func TestEgressMetrics(t *testing.T) {
	session := core.NewSession()
	if err := session.RegisterCube("SALES", sales.Generate(20000, 1).Fact); err != nil {
		t.Fatal(err)
	}
	session.Engine.SetParallelism(2)
	srv := httptest.NewServer(New(session, WithRegistry(obsv.NewRegistry())).Handler())
	t.Cleanup(srv.Close)
	post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	post(t, srv, "/assess", map[string]any{"statement": `with SALES by product, city, month assess quantity labels quartiles`})
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
		`assess_server_encode_bodies_total{endpoint="/assess",mode="inline"} 1`,
		`assess_server_encode_bodies_total{endpoint="/assess",mode="parallel"} 1`,
		`assess_server_encode_bodies_total{endpoint="/query",mode="inline"} 1`,
		`assess_server_encode_bodies_total{endpoint="/query",mode="parallel"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestEncodeSharedResultConcurrently encodes one result from 8 goroutines
// at once, as cache hits do (they share the cube), each body with one to
// four workers of its own: under -race this proves the encoders only read
// it, and every body must be the same.
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
	if chunks := assessBody(cols).chunks(); chunks < minParallelChunks {
		t.Fatalf("a result of %d chunks would never be given workers", chunks)
	}
	buf, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cols, err := res.Columns()
				if err != nil {
					t.Error(err)
					return
				}
				var got bytes.Buffer
				if _, err := encodeBody(context.Background(), &got, buf, assessBody(cols), 1+(g+i)%4); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Error("concurrent encode differs from the reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEncodeAllocsIndependentOfCells pins the encoder's allocations to
// the response and the workers it was given, never the cell count. Inline,
// a pooled encoder formats any number of rows without allocating at all.
// With workers a body pays for its plumbing — goroutines, two channels a
// lane, the lanes — and for nothing that grows with its rows: ten times
// the cells stay under the same constant. The pool may hand out a fresh
// encoder at any time (after a GC; at random under -race), so each count
// is the least of up to twenty runs.
func TestEncodeAllocsIndependentOfCells(t *testing.T) {
	head := []byte(`{"cells":0}`)
	for _, tc := range []struct{ cells, workers, bound int }{
		{100, 1, 0},
		{42000, 1, 0},
		{42000, 2, 8 + 2*8},
		{420000, 2, 8 + 2*8},
	} {
		b := assessBody(syntheticColumns(tc.cells))
		var out bytes.Buffer
		out.Grow(200 * tc.cells)
		least := math.Inf(1)
		for i := 0; i < 20 && least > float64(tc.bound); i++ {
			least = min(least, testing.AllocsPerRun(1, func() {
				out.Reset()
				if _, err := encodeBody(context.Background(), &out, head, b, tc.workers); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if least > float64(tc.bound) {
			t.Errorf("%.0f allocs for %d cells with %d workers, want at most %d", least, tc.cells, tc.workers, tc.bound)
		}
	}
}

// Micro-benchmarks: the timed loop encodes b.N bodies with the columnar
// encoder; the same b.N bodies go through the encoding/json reference
// first, untimed, and the ratio of the two is reported as "speedup" (a
// paired, host-speed-independent metric; gated in CI with allocs/op). A
// benchmark without a reference reports no ratio.

func benchmarkEncode(b *testing.B, fast, reference func()) {
	var refTime time.Duration
	if reference != nil {
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			reference()
		}
		refTime = time.Since(t0)
	}
	fast() // the reference's garbage has emptied the encoder pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fast()
	}
	if reference != nil {
		b.ReportMetric(float64(refTime)/float64(b.Elapsed()), "speedup")
	}
}

// BenchmarkEncodeAssess holds the inline encoder (cells=100, and
// cells=42000/workers=1) to its speedup over encoding/json and its
// allocation count. workers=2 is the same 42 000-cell body given the
// statement's second worker; it is held to its allocation count and
// recorded without a ratio — what a second core is worth depends on the
// host having one idle, which a gate cannot assume.
func BenchmarkEncodeAssess(b *testing.B) {
	run := func(n, workers int) func(b *testing.B) {
		return func(b *testing.B) {
			cols := syntheticColumns(n)
			rows := assessBody(cols)
			head := assessHeader{Strategy: "NP", Cells: n, TotalMs: 27.5, Breakdown: map[string]float64{"Get C": 20.5, "Label": 6.4}}
			var out bytes.Buffer
			out.Grow(200 * n)
			var reference func()
			if workers == 1 {
				reference = func() { out.Reset(); referenceAssessTo(b, &out, head, cols) }
			}
			benchmarkEncode(b, func() { out.Reset(); encodeTo(b, &out, head, rows, workers) }, reference)
		}
	}
	b.Run("cells=100", run(100, 1))
	b.Run("cells=42000/workers=1", run(42000, 1))
	b.Run("cells=42000/workers=2", run(42000, 2))
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
		func() { out.Reset(); encodeTo(b, &out, head, q.body(), 1) },
		func() { out.Reset(); referenceQueryTo(b, &out, head, q) })
}
