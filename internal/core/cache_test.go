package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/sales"
)

func newCachedSession(t *testing.T, rows int) (*Session, *sales.Dataset) {
	t.Helper()
	s := NewSession()
	ds := sales.Generate(rows, 2)
	if err := s.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterCube("SALES_TARGET", ds.External); err != nil {
		t.Fatal(err)
	}
	s.EnableCache(0) // default 64 MiB budget
	return s, ds
}

const cachedStmt = `with SALES for country = 'Italy' by product, country
	assess quantity against country = 'France' labels quartiles`

// TestSessionCacheSingleflight hammers one statement from 16 goroutines
// and asserts exactly one evaluation ran: the miss counter counts
// evaluations, and every other goroutine either joined the in-flight
// call or hit the stored entry. The statement was evaluated once before,
// so the burst's evaluation is the one that is stored. Run with -race.
func TestSessionCacheSingleflight(t *testing.T) {
	s, _ := newCachedSession(t, 5000)
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("first sighting = (%q, %v), want miss", state, err)
	}
	before, _ := s.CacheStats()

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, _, err := s.ExecTracked(cachedStmt)
			if err != nil {
				errs <- err
				return
			}
			if res == nil || res.Cube.Len() == 0 {
				errs <- errEmptyResult
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("cache not enabled")
	}
	if st.Misses-before.Misses != 1 {
		t.Fatalf("%d evaluations ran, want exactly 1 (stats %+v)", st.Misses-before.Misses, st)
	}
	if st.Hits+st.DedupJoins != workers-1 {
		t.Fatalf("hits(%d) + dedup joins(%d) != %d (stats %+v)", st.Hits, st.DedupJoins, workers-1, st)
	}
}

var errEmptyResult = errors.New("empty result")

// TestSessionCacheInvalidation proves an entry misses once an append adds
// a row under what it read, or a materialization bumps the catalog
// generation. A result is stored on its second evaluation at a catalog
// generation; an append does not reset that count.
func TestSessionCacheInvalidation(t *testing.T) {
	s, ds := newCachedSession(t, 5000)

	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("cold exec = (%q, %v), want miss", state, err)
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("second exec = (%q, %v), want miss", state, err)
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateHit {
		t.Fatalf("warm exec = (%q, %v), want hit", state, err)
	}

	// A row in Germany falls outside both gets, country = 'Italy' and
	// country = 'France': the entry outlives it.
	gen := s.Generation()
	vals := make([]float64, len(ds.Fact.Meas))
	for m := range vals {
		vals[m] = 1
	}
	if err := ds.Fact.Append(countryRow(t, ds, "Germany"), vals); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen+1 {
		t.Fatalf("generation after append = %d, want %d", got, gen+1)
	}
	if s.CacheProbe(mustPrepare(t, s, cachedStmt)) != qcache.StateHit {
		t.Fatal("CacheProbe after a disjoint append: want hit")
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateHit {
		t.Fatalf("exec after a disjoint append = (%q, %v), want hit", state, err)
	}
	if st, _ := s.CacheStats(); st.Kept != 1 {
		t.Fatalf("stats after a disjoint append: %+v, want 1 kept", st)
	}

	// A row in France, which the benchmark get reads: the cached entry is
	// stale, and a fresh evaluation sees the new row. The statement's
	// previous evaluation read what the append changed, so this one is
	// not stored either; the next, with nothing appended since, is.
	if err := ds.Fact.Append(countryRow(t, ds, "France"), vals); err != nil {
		t.Fatal(err)
	}
	if s.CacheProbe(mustPrepare(t, s, cachedStmt)) != qcache.StateMiss {
		t.Fatal("CacheProbe after an overlapping append: want miss")
	}
	for run := 1; run <= 2; run++ {
		if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
			t.Fatalf("exec %d after append = (%q, %v), want miss", run, state, err)
		}
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateHit {
		t.Fatalf("third exec after append = (%q, %v), want hit", state, err)
	}

	// Materialize also bumps the generation.
	if err := s.Materialize("SALES", "product", "country"); err != nil {
		t.Fatal(err)
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("exec after materialize = (%q, %v), want miss", state, err)
	}
}

// countryRow returns the keys of a fact row of ds sold in the country.
func countryRow(t *testing.T, ds *sales.Dataset, country string) []int32 {
	t.Helper()
	s := ds.Fact.Schema
	h, _ := s.HierIndex("Store")
	want, ok := s.Hiers[h].Dict(2).Lookup(country)
	if !ok {
		t.Fatalf("no country %q", country)
	}
	up := s.Hiers[h].LevelMap(0, 2)
	for r, k := range ds.Fact.Keys[h] {
		if up[k] == want {
			keys := make([]int32, len(ds.Fact.Keys))
			for i := range keys {
				keys[i] = ds.Fact.Keys[i][r]
			}
			return keys
		}
	}
	t.Fatalf("no row in %s", country)
	return nil
}

func mustPrepare(t *testing.T, s *Session, stmt string) *plan.Plan {
	t.Helper()
	p, err := s.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSessionAutoViewInvalidation is the end-to-end regression for the
// aggregate navigator's generation handling with the query cache in
// front: a hot group-by set is auto-admitted, a fact append bumps the
// session generation, and the next evaluation must neither serve the
// stale cache entry nor the stale auto view — the view survives,
// absorbs the appended row by delta (a refresh, not a rebuild), and the
// result matches a session that never had views or a cache.
func TestSessionAutoViewInvalidation(t *testing.T) {
	s, ds := newCachedSession(t, 5000)
	gen := s.Generation()

	// Two statements with distinct cache fingerprints over one group-by
	// set: each sweeps the whole resident fact, so the second engine miss
	// has paid for the view and materializes it.
	stmts := []string{
		`with SALES by product, country assess quantity labels quartiles`,
		`with SALES by product, country assess storeSales labels quartiles`,
	}
	for _, stmt := range stmts {
		if _, state, err := s.ExecTracked(stmt); err != nil || state != qcache.StateMiss {
			t.Fatalf("cold exec %q = (%q, %v), want miss", stmt, state, err)
		}
	}
	vs := s.ViewStats()
	if len(vs.Views) != 1 || !vs.Views[0].Auto {
		t.Fatalf("after %d misses: views = %+v, want one auto view", len(stmts), vs.Views)
	}
	// The admission changes no answer, so it leaves the generation alone
	// and a statement evaluated before it still counts as seen: its second
	// run is stored, and its third is a hit.
	if got := s.Generation(); got != gen {
		t.Fatalf("generation after an admission = %d, want %d", got, gen)
	}
	if _, state, err := s.ExecTracked(stmts[0]); err != nil || state != qcache.StateMiss {
		t.Fatalf("second exec = (%q, %v), want miss", state, err)
	}
	if st, _ := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("second exec not stored: %+v", st)
	}
	if _, state, err := s.ExecTracked(stmts[0]); err != nil || state != qcache.StateHit {
		t.Fatalf("exec after the admission = (%q, %v), want hit", state, err)
	}

	// One appended fact row, under every cell the statements read: the
	// cached entries and the admitted view are both stale.
	keys := make([]int32, len(ds.Fact.Keys))
	for h := range keys {
		keys[h] = ds.Fact.Keys[h][0]
	}
	vals := make([]float64, len(ds.Fact.Meas))
	for m := range vals {
		vals[m] = 7
	}
	if err := ds.Fact.Append(keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen+1 {
		t.Fatalf("generation after append = %d, want %d", got, gen+1)
	}

	if vs := s.ViewStats(); len(vs.Views) != 1 || !vs.Views[0].Stale || vs.Views[0].Rows != 5000 {
		t.Fatalf("after the append: views = %+v, want the admitted view, stale at mark 5000", vs.Views)
	}
	refreshed, rebuilt, absorbed := staleAction("refreshed"), staleAction("rebuilt"), refreshRows()
	res, state, err := s.ExecTracked(stmts[0])
	if err != nil || state != qcache.StateMiss {
		t.Fatalf("exec after append = (%q, %v), want miss", state, err)
	}
	// The stale auto view must survive and be served, one row fresher.
	if vs = s.ViewStats(); len(vs.Views) != 1 || !vs.Views[0].Auto || vs.Views[0].Stale || vs.Views[0].Rows != 5001 {
		t.Fatalf("after the read: views = %+v, want the admitted view, fresh at mark 5001", vs.Views)
	}
	if d := staleAction("refreshed") - refreshed; d != 1 {
		t.Errorf("the read refreshed %d views, want 1", d)
	}
	if d := staleAction("rebuilt") - rebuilt; d != 0 {
		t.Errorf("the read rebuilt %d views, want 0", d)
	}
	if d := refreshRows() - absorbed; d != 1 {
		t.Errorf("the refresh absorbed %d rows, want the 1 appended", d)
	}

	// Against a reference session that never saw a view or a cache, the
	// post-append answer must match cell for cell.
	ref := NewSession()
	if err := ref.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.ExecTracked(stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube.Len() != want.Cube.Len() || res.Cube.Len() == 0 {
		t.Fatalf("post-append result has %d cells, reference %d", res.Cube.Len(), want.Cube.Len())
	}
	for i := range want.Cube.Len() {
		coord := want.Cube.Coord(i)
		j, ok := res.Cube.Lookup(coord)
		if !ok {
			t.Fatalf("cell %v missing from post-append result", coord)
		}
		for c := range want.Cube.Cols {
			if res.Cube.Cols[c][j] != want.Cube.Cols[c][i] {
				t.Errorf("cell %v col %d: got %g, reference %g",
					coord, c, res.Cube.Cols[c][j], want.Cube.Cols[c][i])
			}
		}
	}

	// The statement's previous evaluation read what the append changed,
	// so the fresh one was not stored; the next, with nothing appended
	// since, is, and the run after it hits.
	if _, state, err := s.ExecTracked(stmts[0]); err != nil || state != qcache.StateMiss {
		t.Fatalf("re-exec after append = (%q, %v), want miss", state, err)
	}
	if _, state, err := s.ExecTracked(stmts[0]); err != nil || state != qcache.StateHit {
		t.Fatalf("third exec after append = (%q, %v), want hit", state, err)
	}
}

// staleAction reads assess_engine_view_stale_total for one action.
func staleAction(action string) int64 {
	return obsv.Default.Counter("assess_engine_view_stale_total", "", "action", action).Value()
}

func refreshRows() int64 {
	return obsv.Default.Counter("assess_engine_view_refresh_rows_total", "").Value()
}

// TestSessionCacheOffByDefault: without EnableCache every exec evaluates
// and reports the off state.
func TestSessionCacheOffByDefault(t *testing.T) {
	s := newSession(t)
	if _, state, err := s.ExecTracked(`with SALES by month assess storeSales labels quartiles`); err != nil || state != qcache.StateOff {
		t.Fatalf("state = %q, err = %v; want off", state, err)
	}
	if _, ok := s.CacheStats(); ok {
		t.Fatal("CacheStats ok without a cache")
	}
}

// TestSessionCacheDeclareInvalidates: registering a labeler mid-session
// (declare) advances the generation so stale labelings cannot be served.
func TestSessionCacheDeclareInvalidates(t *testing.T) {
	s, _ := newCachedSession(t, 2000)
	stmt := `with SALES by month assess storeSales labels quartiles`
	for run := 1; run <= 2; run++ {
		if _, state, err := s.ExecTracked(stmt); err != nil || state != qcache.StateMiss {
			t.Fatalf("exec %d = (%q, %v)", run, state, err)
		}
	}
	if st, _ := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("second exec not stored: %+v", st)
	}
	if err := s.Declare(`declare labels highlow {[-inf, 0): low, [0, inf]: high}`); err != nil {
		t.Fatal(err)
	}
	if _, state, err := s.ExecTracked(stmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("exec after declare = (%q, %v), want miss", state, err)
	}
}

// TestTrackBody walks the contract between the session and a caller that
// replies with encoded rows: the entry a tracked hit was bound to can
// trade its cube for the rows, tracked callers are then served without a
// cube, and everyone else still gets one — by evaluating again.
func TestTrackBody(t *testing.T) {
	if _, body := newSession(t).TrackBody(context.Background()); body != nil {
		t.Fatal("a session without a cache tracks a Body")
	}
	s, _ := newCachedSession(t, 2000)
	run := func(tracked bool) (*exec.Result, CacheState, *qcache.Body) {
		t.Helper()
		ctx, body := context.Background(), (*qcache.Body)(nil)
		if tracked {
			ctx, body = s.TrackBody(ctx)
		}
		res, state, err := s.ExecTrackedContext(ctx, cachedStmt)
		if err != nil {
			t.Fatal(err)
		}
		return res, state, body
	}
	if res, state, _ := run(false); state != qcache.StateMiss || res.Cube == nil {
		t.Fatalf("first sighting = (%+v, %q)", res, state)
	}
	res, state, body := run(true)
	if state != qcache.StateMiss || res.Cube == nil {
		t.Fatalf("cold exec = (%+v, %q)", res, state)
	}
	cells := res.Cube.Len()
	if rows, room := body.Rows(); rows != nil || room != 0 {
		t.Fatalf("the storing exec's Body = (%d bytes, room %d), want none", len(rows), room)
	}
	res, state, body = run(true)
	if rows, room := body.Rows(); state != qcache.StateHit || res.Cube == nil || rows != nil || room == 0 || !body.Keep(make([]byte, 64)) {
		t.Fatalf("first tracked hit = (%+v, %q), rows (%d bytes, room %d), or it kept none", res, state, len(rows), room)
	}
	res, state, body = run(true)
	if state != qcache.StateHit || res.Cube != nil || res.Plan == nil || body.Cells() != cells {
		t.Fatalf("tracked hit on kept rows = (%+v, %q), %d cells of %d", res, state, body.Cells(), cells)
	}
	res, state, _ = run(false)
	if state != qcache.StateMiss || res.Cube == nil || res.Cube.Len() != cells {
		t.Fatalf("untracked exec over kept rows = (%+v, %q), want an evaluation with its cube", res, state)
	}
	if res, state, _ = run(false); state != qcache.StateHit || res.Cube == nil {
		t.Fatalf("untracked exec after the replacement = (%+v, %q)", res, state)
	}
}

// keptBase is what a server's base keeps, as TestCacheBytesFollowHeap
// hands it to a base entry: rows and a row table.
type keptBase struct {
	rows []byte
	at   []int32
}

func (b *keptBase) Bytes() int64 { return int64(cap(b.rows)) + 4*int64(cap(b.at)) }

// TestCacheBytesFollowHeap holds the cache's byte accounting against the
// heap: what the entries are charged is what keeping them costs, within a
// tenth, for many small results (where the plan and statement dominate),
// for a few large ones (where the cube's columns do), for large results
// stored as bases (cube, rows and where each lies: a caller that tracks
// a Body evaluates each statement again after an append that overlaps
// it, and hands the entry rows of 120 bytes a cell and 12 bytes a cell of
// row table, as a server's base holds) and for large results a
// view answers (their key and measure columns may be the view's own). The
// statements run once with the cache on before the heap is read, so that
// the next run stores every result.
func TestCacheBytesFollowHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties what the first moved to the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const (
		small = `with SALES by product, country assess quantity against %d labels quartiles`
		large = `with SALES by product, city, month assess quantity against %d labels quartiles`
	)
	for _, tc := range []struct {
		name, stmt string
		view       []string // materialized before the first run
		base       bool     // tracked runs, with an overlapping append before the stored one
	}{
		{name: "small", stmt: small},
		{name: "large", stmt: large},
		{name: "base", stmt: large, base: true},
		{name: "view", stmt: large, view: []string{"product", "city", "month"}},
	} {
		s := NewSession()
		ds := sales.Generate(50000, 2)
		if err := s.RegisterCube("SALES", ds.Fact); err != nil {
			t.Fatal(err)
		}
		if tc.view != nil {
			if err := s.Materialize("SALES", tc.view...); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			for i := 0; i < 40; i++ {
				ctx, body := context.Background(), (*qcache.Body)(nil)
				if tc.base {
					ctx, body = s.TrackBody(ctx)
				}
				res, _, err := s.ExecTrackedContext(ctx, fmt.Sprintf(tc.stmt, 100+i))
				if err != nil {
					t.Fatal(err)
				}
				if body.Based() {
					n := res.Cube.Len()
					if !body.KeepBase(&keptBase{make([]byte, 120*n), make([]int32, 3*n)}) {
						t.Fatalf("%s: a base kept no rows", tc.name)
					}
				}
			}
		}
		run() // dictionaries, pools and lazily built tables are in place
		s.EnableCache(0)
		run() // first sightings: nothing is stored
		if tc.base {
			if err := ds.Fact.Append(dateRow(t, ds, "1997-05-02"), make([]float64, len(ds.Fact.Meas))); err != nil {
				t.Fatal(err)
			}
		}
		before := heap()
		run()
		grown := heap() - before
		st, _ := s.CacheStats()
		t.Logf("%s: %d entries charged %d bytes (%d of them rows), the heap grew by %d", tc.name, st.Entries, st.Bytes, st.BodyBytes, grown)
		if tc.view != nil {
			if vs := s.ViewStats().Views; len(vs) != 1 || vs[0].Hits < 3*40 {
				t.Errorf("%s: views %+v, want every run answered by the view", tc.name, vs)
			}
		}
		if st.Entries != 40 || tc.base != (st.BodyBytes > 0) || st.Bytes*10 < grown*9 || st.Bytes*9 > grown*10 {
			t.Errorf("%s: %d entries charged %d bytes (%d of them rows), the heap grew by %d", tc.name, st.Entries, st.Bytes, st.BodyBytes, grown)
		}
		runtime.KeepAlive(s)
	}
}

// dateRow returns the keys of the first fact row of ds with the date
// replaced: a row on that date, under the members of row 0 elsewhere.
func dateRow(t *testing.T, ds *sales.Dataset, date string) []int32 {
	t.Helper()
	id, ok := ds.Fact.Schema.Hiers[0].Dict(0).Lookup(date)
	if !ok {
		t.Fatalf("no date %s", date)
	}
	keys := make([]int32, len(ds.Fact.Keys))
	for h := range keys {
		keys[h] = ds.Fact.Keys[h][0]
	}
	keys[0] = id
	return keys
}

// warm runs a statement until the cache holds it: a sighting, then the
// stored evaluation.
func warm(t *testing.T, s *Session, stmt string) {
	t.Helper()
	for range 2 {
		if _, state, err := s.ExecTracked(stmt); err != nil || state != qcache.StateMiss {
			t.Fatalf("warming = (%q, %v), want miss\n  stmt: %s", state, err, stmt)
		}
	}
}

// TestCacheKeepsAnswersAnAppendCannotChange runs each statement's cache
// entry across appends to SALES: one over SALES_TARGET alone is never
// touched; a past-4 answer survives a row after its months and is
// dropped by a row in one of its benchmark months, after which it equals
// a session without a cache; and a version bump with no row drops every
// entry over SALES.
func TestCacheKeepsAnswersAnAppendCannotChange(t *testing.T) {
	s, ds := newCachedSession(t, 5000)
	const (
		budget = `with SALES_TARGET by product assess expectedSales against 100 labels quartiles`
		past   = `with SALES for month = '1997-06' by month, product assess quantity against past 4 labels quartiles`
	)
	vals := make([]float64, len(ds.Fact.Meas))
	for m := range vals {
		vals[m] = 3
	}
	appendOn := func(date string) {
		t.Helper()
		if err := ds.Fact.Append(dateRow(t, ds, date), vals); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(stmt string, want qcache.State, kept int64) {
		t.Helper()
		if _, state, err := s.ExecTracked(stmt); err != nil || state != want {
			t.Fatalf("exec = (%q, %v), want %q\n  stmt: %s", state, err, want, stmt)
		}
		if st, _ := s.CacheStats(); st.Kept != kept {
			t.Fatalf("%d kept, want %d\n  stmt: %s", st.Kept, kept, stmt)
		}
	}
	warm(t, s, budget)
	warm(t, s, past)

	appendOn("1997-09-14")
	expect(budget, qcache.StateHit, 0) // SALES_TARGET's version did not move
	expect(past, qcache.StateHit, 1)

	appendOn("1997-03-10")
	expect(past, qcache.StateMiss, 1)
	res, _, err := s.ExecTracked(past)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession()
	if err := ref.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Exec(past)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube.Len() != want.Cube.Len() {
		t.Fatalf("after a row in a benchmark month: %d cells, reference %d", res.Cube.Len(), want.Cube.Len())
	}
	for j := range want.Cube.Cols {
		for i := range want.Cube.Len() {
			if res.Cube.Cols[j][i] != want.Cube.Cols[j][i] {
				t.Fatalf("after a row in a benchmark month: %s[%d] = %g, reference %g", want.Cube.Names[j], i, res.Cube.Cols[j][i], want.Cube.Cols[j][i])
			}
		}
	}

	warm(t, s, cachedStmt)
	ds.Fact.AdvanceVersion(1)
	expect(past, qcache.StateMiss, 1)
	expect(cachedStmt, qcache.StateMiss, 1)
	expect(budget, qcache.StateHit, 1)
}

// TestCacheAppendBesideProbe: a writer appends rows beside a reader that
// runs one statement over and over with the cache on, one row per run,
// made while the run probes: a third under the statement's slice and the
// rest outside it, so the reader's entries are both kept and dropped.
// Every answer counts each row whose append returned before the reader's
// call, and none appended after it returned. Run with -race.
func TestCacheAppendBesideProbe(t *testing.T) {
	s, ds := newCachedSession(t, 2000)
	const stmt = `with SALES for country = 'Italy' by country assess quantity against 0 labels quartiles`
	quantity := func() float64 {
		t.Helper()
		res, _, err := s.ExecTracked(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cube.Len() != 1 {
			t.Fatalf("%d cells, want 1", res.Cube.Len())
		}
		return res.Cube.Cols[0][0]
	}
	base := quantity()
	italy, germany := countryRow(t, ds, "Italy"), countryRow(t, ds, "Germany")
	vals := make([]float64, len(ds.Fact.Meas))
	for m := range vals {
		vals[m] = 1
	}

	const rows = 300
	var inside atomic.Int64
	next := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range next {
			keys := germany
			if i%3 == 0 {
				keys = italy
			}
			if err := ds.Fact.Append(keys, vals); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				inside.Add(1)
			}
		}
	}()
	for i := range rows {
		before := inside.Load()
		next <- i
		got := quantity()
		after := inside.Load()
		// The row whose append is under way when the call returns may
		// be in its answer already.
		if got < base+float64(before) || got > base+float64(after+1) {
			t.Fatalf("run %d: quantity %g, want within [%g, %g]: a stale answer", i, got, base+float64(before), base+float64(after+1))
		}
	}
	close(next)
	<-done
	if got, want := quantity(), base+rows/3; got != want {
		t.Fatalf("quantity after the writer = %g, want %g", got, want)
	}
	if st, _ := s.CacheStats(); st.Kept == 0 {
		t.Errorf("no entry kept beside the writer: %+v", st)
	}
}
