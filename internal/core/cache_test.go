package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/obsv"
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
// call or hit the stored entry. Run with -race.
func TestSessionCacheSingleflight(t *testing.T) {
	s, _ := newCachedSession(t, 5000)

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
	if st.Misses != 1 {
		t.Fatalf("%d evaluations ran, want exactly 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.DedupJoins != workers-1 {
		t.Fatalf("hits(%d) + dedup joins(%d) != %d (stats %+v)", st.Hits, st.DedupJoins, workers-1, st)
	}
}

var errEmptyResult = errors.New("empty result")

// TestSessionCacheInvalidation proves an entry stored under an older
// catalog generation misses: appending fact rows (a load) and
// materializing a view both bump the generation.
func TestSessionCacheInvalidation(t *testing.T) {
	s, ds := newCachedSession(t, 5000)

	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("cold exec = (%q, %v), want miss", state, err)
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateHit {
		t.Fatalf("warm exec = (%q, %v), want hit", state, err)
	}

	// A FactTable.Append-backed load advances the generation; the cached
	// entry is stale and a fresh evaluation sees the new row.
	gen := s.Generation()
	keys := make([]int32, len(ds.Fact.Keys))
	for h := range keys {
		keys[h] = ds.Fact.Keys[h][0]
	}
	vals := make([]float64, len(ds.Fact.Meas))
	for m := range vals {
		vals[m] = 1
	}
	if err := ds.Fact.Append(keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen+1 {
		t.Fatalf("generation after append = %d, want %d", got, gen+1)
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("exec after append = (%q, %v), want miss", state, err)
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateHit {
		t.Fatalf("re-exec after append = (%q, %v), want hit", state, err)
	}

	// Materialize also bumps the generation.
	if err := s.Materialize("SALES", "product", "country"); err != nil {
		t.Fatal(err)
	}
	if _, state, err := s.ExecTracked(cachedStmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("exec after materialize = (%q, %v), want miss", state, err)
	}
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
	// and a statement cached before it is still a hit.
	if got := s.Generation(); got != gen {
		t.Fatalf("generation after an admission = %d, want %d", got, gen)
	}
	if _, state, err := s.ExecTracked(stmts[0]); err != nil || state != qcache.StateHit {
		t.Fatalf("exec after the admission = (%q, %v), want hit", state, err)
	}

	// One appended fact row: the generation bumps, so the cached entries
	// and the admitted view are both stale.
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

	// The fresh evaluation was stored under the new generation.
	if _, state, err := s.ExecTracked(stmts[0]); err != nil || state != qcache.StateHit {
		t.Fatalf("re-exec after append = (%q, %v), want hit", state, err)
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
	if _, state, err := s.ExecTracked(stmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("cold exec = (%q, %v)", state, err)
	}
	if err := s.Declare(`declare labels highlow {[-inf, 0): low, [0, inf]: high}`); err != nil {
		t.Fatal(err)
	}
	if _, state, err := s.ExecTracked(stmt); err != nil || state != qcache.StateMiss {
		t.Fatalf("exec after declare = (%q, %v), want miss", state, err)
	}
}

// TestTrackBody walks the contract between the session and a caller that
// replies with encoded rows: the entry bound to the tracked Body can trade
// its cube for the rows, tracked callers are then served without a cube,
// and everyone else still gets one — by evaluating again.
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
	res, state, body := run(true)
	if state != qcache.StateMiss || res.Cube == nil {
		t.Fatalf("cold exec = (%+v, %q)", res, state)
	}
	cells := res.Cube.Len()
	body.SetLen(64)
	_, state, body = run(true)
	rows, filled := body.Rows(func(res *exec.Result, n int) []byte { return make([]byte, n) })
	if state != qcache.StateHit || len(rows) != 64 || !filled {
		t.Fatalf("first tracked hit = %q, rows (%d bytes, %v)", state, len(rows), filled)
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

// TestCacheBytesFollowHeap holds the cache's byte accounting against the
// heap: what the entries are charged is what keeping them costs, within a
// tenth, for many small results (where the plan and statement dominate)
// and for a few large ones (where the cube's columns do).
func TestCacheBytesFollowHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties what the first moved to the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for name, stmt := range map[string]string{
		"small": `with SALES by product, country assess quantity against %d labels quartiles`,
		"large": `with SALES by product, city, month assess quantity against %d labels quartiles`,
	} {
		s := NewSession()
		if err := s.RegisterCube("SALES", sales.Generate(50000, 2).Fact); err != nil {
			t.Fatal(err)
		}
		run := func() {
			for i := 0; i < 40; i++ {
				if _, err := s.Exec(fmt.Sprintf(stmt, 100+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // dictionaries, pools and lazily built tables are in place
		before := heap()
		s.EnableCache(0)
		run()
		grown := heap() - before
		st, _ := s.CacheStats()
		if st.Entries != 40 || st.Bytes*10 < grown*9 || st.Bytes*9 > grown*10 {
			t.Errorf("%s: %d entries charged %d bytes, the heap grew by %d", name, st.Entries, st.Bytes, grown)
		}
		runtime.KeepAlive(s)
	}
}
