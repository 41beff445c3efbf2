package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/testutil"
)

// verifySample is how many distinct statements of a run are compared
// cell by cell with the reference.
const verifySample = 64

// canonRow is one result cell in comparable form: member names, the
// numeric columns (NaN for a null), and the label.
type canonRow struct {
	coord []string
	key   string // coord joined, the sort and match key; set by sortRows
	vals  []float64
	label string
}

func sortRows(rows []canonRow) {
	for i := range rows {
		rows[i].key = strings.Join(rows[i].coord, "\x00")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
}

// null maps the values the server encodes as JSON null onto NaN.
func null(v float64) float64 {
	if math.IsInf(v, 0) {
		return math.NaN()
	}
	return v
}

func deref(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// referenceRows evaluates the statement on the plain session: resident
// data, serial scans, no cache, views, store or shards, and the naive
// plan.
func referenceRows(ref *core.Session, st statement) ([]canonRow, error) {
	if st.Kind == "get" {
		qr, err := ref.Query(st.Text)
		if err != nil {
			return nil, err
		}
		c := qr.Cube
		rows := make([]canonRow, c.Len())
		for i, coord := range c.Coords {
			r := canonRow{vals: make([]float64, len(c.Cols))}
			for p, id := range coord {
				r.coord = append(r.coord, c.Schema.Dict(c.Group[p]).Name(id))
			}
			for j := range c.Cols {
				r.vals[j] = null(c.Cols[j][i])
			}
			rows[i] = r
		}
		sortRows(rows)
		return rows, nil
	}
	res, err := ref.ExecWith(st.Text, plan.NP)
	if err != nil {
		return nil, err
	}
	got, err := res.Rows()
	if err != nil {
		return nil, err
	}
	rows := make([]canonRow, len(got))
	for i, r := range got {
		rows[i] = canonRow{
			coord: r.Coordinate,
			vals:  []float64{null(r.Measure), null(r.Benchmark), null(r.Comparison)},
			label: r.Label,
		}
	}
	sortRows(rows)
	return rows, nil
}

// replyRows decodes the rows of an HTTP reply.
func replyRows(st statement, reply []byte) ([]canonRow, error) {
	if st.Kind == "get" {
		var body struct {
			Levels   []string         `json:"levels"`
			Measures []string         `json:"measures"`
			Rows     []map[string]any `json:"rows"`
		}
		if err := json.Unmarshal(reply, &body); err != nil {
			return nil, err
		}
		rows := make([]canonRow, len(body.Rows))
		for i, cell := range body.Rows {
			r := canonRow{vals: make([]float64, len(body.Measures))}
			for _, l := range body.Levels {
				name, _ := cell[l].(string)
				r.coord = append(r.coord, name)
			}
			for j, m := range body.Measures {
				if v, ok := cell[m].(float64); ok {
					r.vals[j] = v
				} else {
					r.vals[j] = math.NaN()
				}
			}
			rows[i] = r
		}
		sortRows(rows)
		return rows, nil
	}
	var body struct {
		Rows []struct {
			Coordinate []string `json:"coordinate"`
			Measure    *float64 `json:"measure"`
			Benchmark  *float64 `json:"benchmark"`
			Comparison *float64 `json:"comparison"`
			Label      string   `json:"label"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(reply, &body); err != nil {
		return nil, err
	}
	rows := make([]canonRow, len(body.Rows))
	for i, r := range body.Rows {
		rows[i] = canonRow{
			coord: r.Coordinate,
			vals:  []float64{deref(r.Measure), deref(r.Benchmark), deref(r.Comparison)},
			label: r.Label,
		}
	}
	sortRows(rows)
	return rows, nil
}

// valueTolerance is the relative tolerance on numeric columns. SSB
// revenue is not integer-valued, so parallel and sharded scans, which
// add partial sums in another order than the serial reference, differ
// from it by rounding: tens of ULPs on a sum of 10^4 rows, and more once
// a comparison such as normDifference subtracts two nearly equal sums.
// A wrong row in or out of a cell moves it by many orders more.
const valueTolerance = 1e-9

// diffRows describes the first difference between a reply and the
// reference ("" when they agree). Coordinates and labels must match
// exactly, numbers within valueTolerance (NaN equals NaN).
func diffRows(want, got []canonRow) string {
	if len(want) != len(got) {
		return fmt.Sprintf("reply has %d cells, reference has %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.key != g.key {
			return fmt.Sprintf("cell %d: coordinate %v, reference has %v", i, g.coord, w.coord)
		}
		if len(w.vals) != len(g.vals) {
			return fmt.Sprintf("cell %d %v: %d values, reference has %d", i, w.coord, len(g.vals), len(w.vals))
		}
		for j := range w.vals {
			if !testutil.FloatNear(w.vals[j], g.vals[j], valueTolerance) {
				return fmt.Sprintf("cell %d %v: value %d is %v, reference %v", i, w.coord, j, g.vals[j], w.vals[j])
			}
		}
		if w.label != g.label {
			return fmt.Sprintf("cell %d %v: label %q, reference %q", i, w.coord, g.label, w.label)
		}
	}
	return ""
}

// verify is the correctness gate. After the timed phase, and after the
// writer has quiesced and the reference table has received the same
// rows, it sends a seeded sample of the run's statements again and
// compares each reply with the reference answer. On a cold workload the
// reply is the very result the timed phase computed and cached. It
// returns one message per mismatch.
func verify(d *deployment, w *workload, stmts []statement, appended int) ([]string, error) {
	ref := core.NewSession()
	if err := replayAppends(d, d.ds.Fact, appended); err != nil {
		return nil, err
	}
	if err := ref.RegisterCube("LINEORDER", d.ds.Fact); err != nil {
		return nil, err
	}
	if w.budget {
		if err := ref.RegisterCube("LINEORDER_BUDGET", d.ds.Budget); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(d.seed ^ 0x76657269))
	cl := newClient(d.url)
	defer cl.close()
	var failures []string
	seen := make(map[string]bool)
	for _, i := range rng.Perm(len(stmts)) {
		if len(seen) == verifySample {
			break
		}
		st := stmts[i]
		if seen[st.Text] {
			continue
		}
		seen[st.Text] = true
		want, err := referenceRows(ref, st)
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", st.Text, err)
		}
		_, status, reply, err := cl.do(st, requestBody(st), tenants[0])
		if err != nil || status != http.StatusOK {
			failures = append(failures, fmt.Sprintf("%q: status %d, %v", st.Text, status, err))
			continue
		}
		got, err := replyRows(st, reply)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%q: %v", st.Text, err))
			continue
		}
		if diff := diffRows(want, got); diff != "" {
			failures = append(failures, fmt.Sprintf("%q: %s", st.Text, diff))
		}
	}
	return failures, nil
}
