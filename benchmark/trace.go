package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Clocked spans are measured by the benchmark around a call
// into a layer; derived spans carry a duration the program reported (the
// exec.* fields of the /assess reply) or one the benchmark measured
// standalone after the reply (parse, bind, plan, probe), and have no
// position of their own on the time line.
const (
	spanStmt     = "stmt"
	spanHandler  = "server.handler"
	spanDistScan = "dist.scan"
	spanShard    = "dist.shard"
	spanSnapshot = "colstore.snapshot"
	spanBlock    = "colstore.block"

	spanParse         = "parser.parse"
	spanBind          = "semantic.bind"
	spanPlan          = "plan.build"
	spanProbe         = "qcache.probe"
	spanExecTotal     = "exec.total"
	spanExecGet       = "exec.get"
	spanExecTransform = "exec.transform"
	spanExecJoin      = "exec.join"
	spanExecCompare   = "exec.compare"
	spanExecLabel     = "exec.label"
)

// span is one timed interval of one statement. Times are microseconds
// since the recorder's epoch.
type span struct {
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Note is the statement's kind, on stmt spans.
	Note    string  `json:"note,omitempty"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
	// Derived marks a span known by duration only: StartUs is 0 and
	// EndUs is the duration.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() float64 { return s.EndUs - s.StartUs }

// recorder keeps the spans of a traced run in memory. The traced run has
// one client, so the statement in flight is a single number: the client
// stores its index in cur before sending and -1 after the reply, and
// every seam decorator records only while cur >= 0. Statements the run
// leaves untraced (a seeded half, for the overhead ratio) and the warm-up
// therefore cost one atomic load per decorated call.
type recorder struct {
	epoch time.Time
	cur   atomic.Int64

	mu    sync.Mutex
	spans []span

	// blockCalls counts ScanSource.Block calls on segment blocks whether
	// or not the statement is traced (colstore.blocks_total).
	blockCalls atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.cur.Store(-1)
	return r
}

func (r *recorder) us(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

// begin returns the statement in flight and the start time, or -1 when
// nothing is being traced.
func (r *recorder) begin() (int, time.Time) {
	stmt := int(r.cur.Load())
	if stmt < 0 {
		return -1, time.Time{}
	}
	return stmt, time.Now()
}

func (r *recorder) end(stmt int, name, parent string, start time.Time) {
	r.add(span{Stmt: stmt, Name: name, Parent: parent, StartUs: r.us(start), EndUs: r.us(time.Now())})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) derived(stmt int, name, parent string, d time.Duration) {
	r.add(span{Stmt: stmt, Name: name, Parent: parent, EndUs: float64(d) / float64(time.Microsecond), Derived: true})
}

// byStatement groups spans by statement index.
func byStatement(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		out[s.Stmt] = append(out[s.Stmt], s)
	}
	return out
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// sumNamed adds up the durations of one statement's spans of a name.
func sumNamed(spans []span, name string) float64 {
	var t float64
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// unionNamed is the length of the union of the intervals of the clocked
// spans with one of the given names: parallel children (shard scans,
// block decodes) are not counted twice.
func unionNamed(spans []span, names ...string) float64 {
	var iv [][2]float64
	for _, s := range spans {
		if s.Derived {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				iv = append(iv, [2]float64{s.StartUs, s.EndUs})
			}
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi float64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += x[1] - x[0]
			hi = x[1]
		} else if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}
