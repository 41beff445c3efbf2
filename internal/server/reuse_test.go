package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
)

// Replies encoded against a base: the rows an earlier reply of the same
// statement wrote, handed over by the cache when an append overlapped its
// entry. The contract: such a reply is, byte for byte, the reply a server
// without a cache writes for the same data.

// replyRow is the part of an /assess row the tests below read.
type replyRow struct {
	Coordinate []string
	Measure    float64
	Label      string
}

// TestReuseMatchesCacheOff re-sends one statement across append bursts
// and holds the rows of every reply, byte for byte, to those of a server
// without a cache over the same fact, at one and at two encode lanes.
// After a first burst stores a base, each burst's first reply is encoded
// against the base of the one before and copies rows from it, and the
// next reply is a hit on the new base. The bursts add cells; add a
// product whose name sorts between two others, so the name ranks of the
// members after it move; and add cells of a small quantity under a new
// month, which move the quartile bounds, so that cells whose values did
// not change change label.
func TestReuseMatchesCacheOff(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			session, ds := salesSession(t, 5000)
			session.Engine.SetParallelism(lanes)
			ref := core.NewSession()
			if err := ref.RegisterCube("SALES", ds.Fact); err != nil {
				t.Fatal(err)
			}
			ref.Engine.SetParallelism(lanes)
			h, reg, _, _ := cachedHandler(t, session, 0)
			off := New(ref).Handler()
			rowsFrom := func(source string) int64 {
				return reg.Counter("assess_server_encode_rows_total", "", "endpoint", "/assess", "source", source).Value()
			}
			reused := func() int64 { return reg.Counter("assess_cache_body_total", "", "outcome", "reused").Value() }

			type reply struct {
				Cache string
				Cells int
				Rows  []replyRow
			}
			var last reply
			send := func(step, wantCache string) reply {
				t.Helper()
				got := serve(t, h, largeStatement, false)
				if want := rowsMember(t, serve(t, off, largeStatement, false)); !bytes.Equal(rowsMember(t, got), want) {
					t.Fatalf("%s: rows differ from the cache-off reply:\n got %.300s\nwant %.300s", step, rowsMember(t, got), want)
				}
				var r reply
				if err := json.Unmarshal(got, &r); err != nil {
					t.Fatal(err)
				}
				if r.Cache != wantCache {
					t.Fatalf("%s: cache %q, want %q", step, r.Cache, wantCache)
				}
				last = r
				return r
			}
			for i, want := range []string{"miss", "miss", "hit"} {
				send(fmt.Sprintf("cold reply %d", i), want)
			}
			if last.Cells < minParallelChunks*chunkRows {
				t.Fatalf("%d cells: too few for the body's lanes", last.Cells)
			}

			rng := rand.New(rand.NewSource(7))
			vals := make([]float64, len(ds.Fact.Meas))
			appendRow := func(keys []int32, quantity float64) {
				t.Helper()
				for m := range vals {
					vals[m] = quantity
				}
				if err := ds.Fact.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
			}
			// rowAt returns the keys of a random fact row with the date
			// replaced by a random one of the first n dates.
			rowAt := func(n int) []int32 {
				i := rng.Intn(ds.Fact.Rows())
				keys := make([]int32, len(ds.Fact.Keys))
				for h := range keys {
					keys[h] = ds.Fact.Keys[h][i]
				}
				keys[0] = int32(rng.Intn(n))
				return keys
			}
			dates := ds.Fact.Schema.Hiers[0].Dict(0).Len()
			products := ds.Fact.Schema.Hiers[2]

			for _, burst := range []struct {
				name string
				add  func()
				// check looks at the reply encoded against the base, and the
				// one before it.
				check func(before, after reply) string
			}{
				{"a base", func() { appendRow(rowAt(dates), 3) }, nil},
				{"new cells", func() {
					for range 40 {
						appendRow(rowAt(dates), 2)
					}
				}, func(before, after reply) string {
					if after.Cells <= before.Cells {
						return fmt.Sprintf("%d cells after the burst, %d before: no new cell", after.Cells, before.Cells)
					}
					return ""
				}},
				{"a new product", func() {
					id := products.MustAddMember("Mango", "Fresh Fruit", "Fruit") // between "Lemon" and "Peach"
					keys := rowAt(dates)
					keys[2] = id
					appendRow(keys, 5)
				}, func(_, after reply) string {
					if !slices.ContainsFunc(after.Rows, func(r replyRow) bool { return r.Coordinate[1] == "Mango" }) {
						return "no cell of the new product"
					}
					return ""
				}},
				{"labels flip", func() {
					date := ds.Fact.Schema.Hiers[0].MustAddMember("1998-01-05", "1998-01", "1998")
					for range 300 {
						keys := rowAt(dates)
						keys[0] = date
						appendRow(keys, 1)
					}
				}, func(before, after reply) string {
					was := map[string]float64{}
					label := map[string]string{}
					for _, r := range before.Rows {
						k := strings.Join(r.Coordinate, "/")
						was[k], label[k] = r.Measure, r.Label
					}
					for _, r := range after.Rows {
						k := strings.Join(r.Coordinate, "/")
						if m, ok := was[k]; ok && m == r.Measure && label[k] != r.Label {
							return ""
						}
					}
					return "no cell whose measure held changed label"
				}},
			} {
				before := last
				copied, formatted, reuses := rowsFrom("base"), rowsFrom("formatted"), reused()
				burst.add()
				after := send(burst.name, "miss")
				if burst.check != nil {
					if msg := burst.check(before, after); msg != "" {
						t.Fatalf("%s: %s", burst.name, msg)
					}
					copied, formatted = rowsFrom("base")-copied, rowsFrom("formatted")-formatted
					if reused() != reuses+1 || copied == 0 || formatted == 0 || copied+formatted != int64(after.Cells) {
						t.Fatalf("%s: %d rows copied from the base and %d formatted of %d, %d replies reused a base",
							burst.name, copied, formatted, after.Cells, reused()-reuses)
					}
				}
				send(burst.name+", again", "hit")
			}
		})
	}
}

// TestBaseConcurrent sends one statement from 8 goroutines at once,
// twice: at a base that still holds, where each reply is a hit encoded
// against it, and after an append that overlaps it, where one evaluation
// is handed the base and stores the next, and the others join it or hit
// that one. Every reply carries the rows of a cache-off server, and the
// race detector watches the base's buffers and the lanes that read them.
func TestBaseConcurrent(t *testing.T) {
	session, ds := salesSession(t, 20000)
	session.Engine.SetParallelism(2)
	ref := core.NewSession()
	if err := ref.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	h, reg, _, _ := cachedHandler(t, session, 0)
	off := New(ref).Handler()
	vals := make([]float64, len(ds.Fact.Meas))
	appendRow := func() {
		t.Helper()
		keys := make([]int32, len(ds.Fact.Keys))
		for h := range keys {
			keys[h] = ds.Fact.Keys[h][0]
		}
		if err := ds.Fact.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	serve(t, h, largeStatement, false)
	appendRow()
	serve(t, h, largeStatement, false) // stored as a base
	for round := range 2 {
		if round == 1 {
			appendRow()
		}
		want := rowsMember(t, serve(t, off, largeStatement, false))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reqBody, _ := json.Marshal(map[string]any{"statement": largeStatement})
				<-start
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/assess", bytes.NewReader(reqBody)))
				if i := bytes.Index(rec.Body.Bytes(), []byte(rowsHead)); rec.Code != http.StatusOK || i < 0 || !bytes.Equal(rec.Body.Bytes()[i:], want) {
					t.Errorf("round %d: status %d, rows differ from the cache-off reply", round, rec.Code)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	if got := reg.Counter("assess_cache_body_total", "", "outcome", "reused").Value(); got < 8 {
		t.Errorf("%d replies reused a base, want at least the 8 hits on it", got)
	}
}

// changed is c with the measure of one row in seven changed, and the
// comparison with it; it shares c's dictionaries and labels.
func changed(c exec.Columns) exec.Columns {
	c.Measure, c.Comparison = slices.Clone(c.Measure), slices.Clone(c.Comparison)
	for i := 3; i < len(c.Measure); i += 7 {
		c.Measure[i] += 1
		c.Comparison[i] = c.Measure[i] / c.Benchmark[i]
	}
	return c
}

// pick is the rows of c at the given positions, in order, under c's
// dictionaries and label names.
func pick(c exec.Columns, rows []int) exec.Columns {
	out := exec.Columns{Dicts: c.Dicts, Keys: make([][]int32, len(c.Keys)), Labels: &labeling.Column{Names: c.Labels.Names}}
	for _, i := range rows {
		for p, col := range c.Keys {
			out.Keys[p] = append(out.Keys[p], col[i])
		}
		out.Measure = append(out.Measure, c.Measure[i])
		out.Benchmark = append(out.Benchmark, c.Benchmark[i])
		out.Comparison = append(out.Comparison, c.Comparison[i])
		out.Labels.Codes = append(out.Labels.Codes, c.Labels.Codes[i])
	}
	return out
}

// encodeBase encodes c against old (nil: from scratch) as a reply that
// leaves a base, and returns the base.
func encodeBase(t testing.TB, c exec.Columns, old *base, workers int) *base {
	from, _ := old.match(c)
	lens := make([]int32, len(c.Measure))
	next := newBaseCopy(c, old, from, lens)
	b := reuseBody(c, old, from, lens)
	b.sent = next.sent
	encodeTo(t, io.Discard, assessHeader{}, b, workers)
	return next.done()
}

// baseRows is the rows member a base holds, as a body ends with it.
func baseRows(b *base) []byte {
	out := []byte(rowsHead)
	for i, at := range b.at {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, b.bufs[at.buf][at.lo:at.hi]...)
	}
	return append(out, rowsTail...)
}

// TestBaseMatch holds the merge walk to its rule on synthetic columns: a
// row is taken from the base when its coordinate, values and label are
// the base row's; rows the base lacks, and rows of the base the result
// lacks, are stepped over; and results that do not share dictionaries,
// benchmark presence or label names match nothing. Along a chain of
// bases, each reply encoded against the last base is the reply encoded
// from scratch, at one and at three lanes, and each base holds that
// reply's rows: one that copied most rows lies in two buffers, one whose
// rows mostly changed is moved into one.
func TestBaseMatch(t *testing.T) {
	const n = 3000
	old := syntheticColumns(n)
	b := encodeBase(t, old, nil, 3)
	if want := rowsMember(t, encodeAssess(t, assessHeader{}, old)); !bytes.Equal(baseRows(b), want) || len(b.bufs) != 1 {
		t.Fatalf("a base encoded from scratch holds other rows than its reply's, or %d buffers", len(b.bufs))
	}

	// The base's first two rows and row 1002 are gone, one row in seven
	// changed, and row 0 is under a customer added to the dictionary whose
	// name sorts first.
	rows := []int{}
	for i := 2; i < n; i++ {
		if i != 1002 {
			rows = append(rows, i)
		}
	}
	c := pick(changed(old), rows)
	c.Keys[0][0] = c.Dicts[0].Intern("Customer#")
	from, reused := b.match(c)
	if from[0] != -1 {
		t.Fatalf("row 0, of a new customer, matched base row %d", from[0])
	}
	for i := 1; i < len(rows); i++ {
		j, was := from[i], rows[i]
		if want := map[bool]int32{true: -1, false: int32(was)}[was%7 == 3]; j != want {
			t.Fatalf("row %d (base row %d) matched base row %d, want %d", i, was, j, want)
		}
	}
	if want := len(rows) - 1 - (len(rows)+6)/7; reused < want-1 || reused > want+1 {
		t.Fatalf("%d rows reused, want about %d", reused, want)
	}

	// Most rows of the third reply change again: its base would hold the
	// first base's buffer for few rows.
	most := changed(c)
	for i := range most.Measure {
		if i%7 != 5 {
			most.Measure[i] += 2
		}
	}
	for step, tc := range []struct {
		c       exec.Columns
		buffers int
	}{{c, 2}, {most, 1}} {
		for _, workers := range []int{1, 3} {
			from, _ := b.match(tc.c)
			var got, fresh bytes.Buffer
			encodeTo(t, &got, assessHeader{}, reuseBody(tc.c, b, from, nil), workers)
			encodeTo(t, &fresh, assessHeader{}, assessBody(tc.c), workers)
			if !bytes.Equal(got.Bytes(), fresh.Bytes()) {
				t.Fatalf("step %d, %d workers: the reply encoded against the base differs from the one encoded from scratch", step, workers)
			}
			if next := encodeBase(t, tc.c, b, workers); !bytes.Equal(baseRows(next), rowsMember(t, fresh.Bytes())) || len(next.bufs) != tc.buffers {
				t.Fatalf("step %d, %d workers: the next base holds other rows than the reply's, or %d buffers, want %d", step, workers, len(next.bufs), tc.buffers)
			}
		}
		b = encodeBase(t, tc.c, b, 2)
	}

	noBench, otherLabels, otherDicts := c, c, c
	noBench.Benchmark = nil
	otherLabels.Labels = &labeling.Column{Codes: c.Labels.Codes, Names: append(slices.Clone(c.Labels.Names[:len(c.Labels.Names)-1]), "top")}
	otherDicts.Dicts = []*mdm.Dict{c.Dicts[0], mdm.NewDict()}
	for name, c := range map[string]exec.Columns{"no benchmark": noBench, "other label names": otherLabels, "other dictionaries": otherDicts} {
		if from, reused := b.match(c); from != nil || reused != 0 {
			t.Errorf("%s: %d rows matched", name, reused)
		}
	}
}

// BenchmarkAssessReuse times an /assess body of 42 000 cells encoded
// against a base that differs from it in one row of seven — the merge
// walk, the six rows in seven copied from the base's bytes, the seventh
// formatted — against the same body encoded from scratch, both inline
// (one worker) and written to a buffer. "speedup" is the paired ratio,
// as in BenchmarkEncodeAssess.
func BenchmarkAssessReuse(b *testing.B) {
	const n = 42000
	old := syntheticColumns(n)
	bs, c := encodeBase(b, old, nil, 1), changed(old)
	head := assessHeader{Strategy: "NP", Cells: n, TotalMs: 27.5, Breakdown: map[string]float64{"Get C": 20.5, "Label": 6.4}}
	var out bytes.Buffer
	out.Grow(200 * n)
	benchmarkEncode(b, func() {
		out.Reset()
		from, _ := bs.match(c)
		encodeTo(b, &out, head, reuseBody(c, bs, from, nil), 1)
	}, func() {
		out.Reset()
		encodeTo(b, &out, head, assessBody(c), 1)
	})
}
