package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/storage"
)

// tenants are spread round-robin over a client's requests so that the
// admission controller's per-tenant queues are exercised.
var tenants = []string{"alpha", "beta", "gamma"}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	http *http.Client
	url  string
	buf  bytes.Buffer
}

func newClient(url string) *client {
	return &client{
		url:  url,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 2 * time.Minute},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do posts one statement and reads the whole reply. The latency runs
// from the send to the last body byte. The returned body aliases the
// client's buffer and is valid until the next call.
func (c *client) do(st statement, body []byte, tenant string) (lat time.Duration, status int, reply []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+st.Endpoint, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return time.Since(start), 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	return lat, resp.StatusCode, c.buf.Bytes(), err
}

func requestBody(st statement) []byte {
	b, err := json.Marshal(map[string]string{"statement": st.Text})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

var labelKey = []byte(`"label":"`)

// replyOK is the check every timed reply gets: status 200 and, for an
// assess statement, every label drawn from the statement's label set. It
// scans the bytes for the label fields and does not decode the reply, so
// the in-process client stays a small share of the measured CPU.
func replyOK(st statement, status int, reply []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, reply)
	}
	if st.Endpoint != "/assess" {
		return nil
	}
	for rest := reply; ; {
		i := bytes.Index(rest, labelKey)
		if i < 0 {
			return nil
		}
		rest = rest[i+len(labelKey):]
		end := bytes.IndexByte(rest, '"')
		if end < 0 {
			return fmt.Errorf("unterminated label in reply")
		}
		if !allowedLabel(st, rest[:end]) {
			return fmt.Errorf("label %q is not in the statement's label set %v", rest[:end], st.Labels)
		}
		rest = rest[end:]
	}
}

func allowedLabel(st statement, label []byte) bool {
	if string(label) == "null" {
		return true
	}
	for _, l := range st.Labels {
		if string(label) == l {
			return true
		}
	}
	return false
}

// sample is the outcome of one timed statement.
type sample struct {
	idx    int
	lat    time.Duration
	bytes  int
	traced bool
	err    error
}

// phase is the outcome of the timed phase.
type phase struct {
	samples   []sample
	wall      time.Duration
	appendDur []time.Duration // one per appended batch
	appended  int             // rows appended
	appendErr error           // first error of the writer
}

// drive runs the timed phase: w.clients closed-loop clients share the
// statement list (client c sends statements c, c+clients, ...), and the
// writer, if the workload has one, appends beside them. With a recorder
// a single client sends one client's share of the list, and a seeded
// half of its statements is traced. deadline bounds the phase for a
// program that has become much slower than at calibration; statements
// not sent by then are not attempted.
func drive(d *deployment, w *workload, stmts []statement, rec *recorder, deadline time.Duration) *phase {
	bodies := make([][]byte, len(stmts))
	for i, st := range stmts {
		bodies[i] = requestBody(st)
	}
	ph := &phase{}
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		trigger chan struct{}
		writer  sync.WaitGroup
	)
	if w.appendEvery > 0 {
		trigger = make(chan struct{})
		writer.Add(1)
		go func() {
			defer writer.Done()
			rows := newAppendRows(d)
			// Keeps receiving after an error so the reader never blocks.
			for range trigger {
				t0 := time.Now()
				for i := 0; i < w.appendRows && ph.appendErr == nil; i++ {
					keys, vals := rows.next()
					ph.appendErr = d.fact.Append(keys, vals)
					ph.appended++
				}
				ph.appendDur = append(ph.appendDur, time.Since(t0))
			}
		}()
	}

	clients := w.clients
	// Which statements the traced run traces is drawn, not strided: a
	// stride would fall in step with the tile passes or the writer.
	tracedStmt := make([]bool, len(stmts))
	if rec != nil {
		// The recorder attributes spans to the one statement in flight.
		stmts, clients = stmts[:len(stmts)/w.clients], 1
		pick := rand.New(rand.NewSource(d.seed ^ 0x74726163))
		for i := range tracedStmt {
			tracedStmt[i] = pick.Intn(2) == 1
		}
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(d.url)
			defer cl.close()
			var mine []sample
			for i, n := c, 0; i < len(stmts) && time.Since(start) < deadline; i, n = i+clients, n+1 {
				st := stmts[i]
				traced := tracedStmt[i]
				if traced {
					rec.cur.Store(int64(i))
				}
				sent := time.Now()
				lat, status, reply, err := cl.do(st, bodies[i], tenants[n%len(tenants)])
				if traced {
					rec.cur.Store(-1)
					rec.add(span{Stmt: i, Name: spanStmt, Note: st.Kind, StartUs: rec.us(sent), EndUs: rec.us(sent.Add(lat))})
				}
				if err == nil {
					err = replyOK(st, status, reply)
				}
				if traced && err == nil {
					err = recordLayers(rec, d.session, i, st, reply)
				}
				mine = append(mine, sample{idx: i, lat: lat, bytes: len(reply), traced: traced, err: err})
				if trigger != nil && (n+1)%w.appendEvery == 0 {
					trigger <- struct{}{}
				}
			}
			mu.Lock()
			ph.samples = append(ph.samples, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if trigger != nil {
		close(trigger)
		writer.Wait()
	}
	ph.wall = time.Since(start)
	return ph
}

// appendRows generates the writer's rows: facts of the newest month,
// with the other keys and the measures drawn as the SSB generator draws
// them. The stream depends only on the seed, so the reference table can
// receive the same rows afterwards.
type appendRows struct {
	rng              *rand.Rand
	firstDate, dates int
	card             [4]int
	keys             []int32
	vals             []float64
}

func newAppendRows(d *deployment) *appendRows {
	s := d.ds.Schema
	r := &appendRows{rng: rand.New(rand.NewSource(d.seed ^ 0x617070)), keys: make([]int32, 4), vals: make([]float64, 3)}
	for h := range r.card {
		r.card[h] = s.Hiers[h].Dict(0).Len()
	}
	r.dates = 28 // days of the last month
	r.firstDate = r.card[0] - r.dates
	return r
}

func (r *appendRows) next() ([]int32, []float64) {
	r.keys[0] = int32(r.firstDate + r.rng.Intn(r.dates))
	for h := 1; h < 4; h++ {
		r.keys[h] = int32(r.rng.Intn(r.card[h]))
	}
	qty := float64(1 + r.rng.Intn(50))
	revenue := qty * (900 + 1200*r.rng.Float64()) * (1 - float64(r.rng.Intn(11))/100)
	r.vals[0], r.vals[1], r.vals[2] = qty, revenue, revenue*(0.55+0.15*r.rng.Float64())
	return r.keys, r.vals
}

// replayAppends gives the resident reference table the rows the writer
// appended to the served one.
func replayAppends(d *deployment, f *storage.FactTable, n int) error {
	rows := newAppendRows(d)
	for i := 0; i < n; i++ {
		keys, vals := rows.next()
		if err := f.Append(keys, vals); err != nil {
			return err
		}
	}
	return nil
}

// replyHead is the part of an /assess or /query reply that precedes the
// rows: what the program itself measured for the statement.
type replyHead struct {
	TotalMs   float64            `json:"totalMs"`
	Breakdown map[string]float64 `json:"breakdownMs"`
	Cache     string             `json:"cache"`
}

// parseHead decodes the fields before "rows" without touching the rows.
func parseHead(reply []byte) (replyHead, error) {
	var h replyHead
	dec := json.NewDecoder(bytes.NewReader(reply))
	if _, err := dec.Token(); err != nil { // {
		return h, err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return h, err
		}
		var dst any
		switch key {
		case "rows":
			return h, nil
		case "totalMs":
			dst = &h.TotalMs
		case "breakdownMs":
			dst = &h.Breakdown
		case "cache":
			dst = &h.Cache
		default:
			dst = new(json.RawMessage)
		}
		if err := dec.Decode(dst); err != nil {
			return h, err
		}
	}
	return h, nil
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// recordLayers adds the derived spans of a traced statement: the exec.*
// durations the reply carries (zero on a cache hit, whose reply repeats
// the timings of the evaluation that filled the cache), and parse, bind,
// plan and cache probe timed standalone on the same text, after the
// reply so they do not lengthen the statement.
func recordLayers(rec *recorder, s *core.Session, idx int, st statement, reply []byte) error {
	head, err := parseHead(reply)
	if err != nil {
		return fmt.Errorf("reply head: %w", err)
	}
	if head.Cache == "hit" {
		head = replyHead{}
	}
	bd := head.Breakdown
	get := bd[plan.PhaseGetC.String()] + bd[plan.PhaseGetB.String()] + bd[plan.PhaseGetCB.String()]
	if st.Kind == "get" {
		get = head.TotalMs // /query reports the scan as its total
	}
	rec.derived(idx, spanExecTotal, spanHandler, ms(head.TotalMs))
	rec.derived(idx, spanExecGet, spanExecTotal, ms(get))
	rec.derived(idx, spanExecTransform, spanExecTotal, ms(bd[plan.PhaseTransform.String()]))
	rec.derived(idx, spanExecJoin, spanExecTotal, ms(bd[plan.PhaseJoin.String()]))
	rec.derived(idx, spanExecCompare, spanExecTotal, ms(bd[plan.PhaseCompare.String()]))
	rec.derived(idx, spanExecLabel, spanExecTotal, ms(bd[plan.PhaseLabel.String()]))

	t0 := time.Now()
	parsed, err := parser.Parse(st.Text)
	t1 := time.Now()
	if err != nil {
		return err
	}
	rec.derived(idx, spanParse, spanHandler, t1.Sub(t0))
	if st.Kind == "get" {
		_, err := s.Binder.BindGet(parsed)
		rec.derived(idx, spanBind, spanHandler, time.Since(t1))
		return err
	}
	bound, err := s.Binder.Bind(parsed)
	t2 := time.Now()
	if err != nil {
		return err
	}
	p, err := plan.Build(bound, core.BestStrategy(bound.Bench.Kind))
	t3 := time.Now()
	if err != nil {
		return err
	}
	s.CacheProbe(p)
	t4 := time.Now()
	rec.derived(idx, spanBind, spanHandler, t2.Sub(t1))
	rec.derived(idx, spanPlan, spanHandler, t3.Sub(t2))
	rec.derived(idx, spanProbe, spanHandler, t4.Sub(t3))
	return nil
}
