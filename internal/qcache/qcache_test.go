package qcache_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/sales"
)

// fakeResult builds a result with n cells of one measure, big enough to
// exercise byte accounting.
func fakeResult(t testing.TB, n int) *exec.Result {
	t.Helper()
	s := sales.Schema()
	g, err := mdm.NewGroupBy(s, "month")
	if err != nil {
		t.Fatal(err)
	}
	c := cube.New(s, g, "m")
	for i := 0; i < n; i++ {
		if err := c.AddCell(mdm.Coordinate{int32(i)}, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return &exec.Result{Cube: c}
}

// testKey crafts a key from its first and last byte. The first byte once
// chose one of 16 independently budgeted shards; tests vary it so that
// nothing depends on which keys share one.
func testKey(head, tail byte) qcache.Key {
	var k qcache.Key
	k[0] = head
	k[31] = tail
	return k
}

// joinSignal makes c report every caller that joins an in-flight
// evaluation on the returned channel.
func joinSignal(c *qcache.Cache, buffer int) <-chan struct{} {
	joined := make(chan struct{}, buffer) // one slot per expected join: the hook never blocks
	c.SetOnJoin(func() { joined <- struct{}{} })
	return joined
}

func TestDoCachesAndHits(t *testing.T) {
	c := qcache.New(1 << 20)
	res := fakeResult(t, 4)
	var evals int
	eval := func() (*exec.Result, error) { evals++; return res, nil }

	got, state, err := c.Do(testKey(0, 1), 7, eval)
	if err != nil || got != res || state != qcache.StateMiss {
		t.Fatalf("first Do = (%p, %q, %v), want miss of %p", got, state, err, res)
	}
	got, state, err = c.Do(testKey(0, 1), 7, eval)
	if err != nil || got != res || state != qcache.StateHit {
		t.Fatalf("second Do = (%p, %q, %v), want hit", got, state, err)
	}
	if evals != 1 {
		t.Fatalf("evaluations = %d, want 1", evals)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !c.Peek(testKey(0, 1), 7) {
		t.Fatal("Peek should see the entry at its generation")
	}
	if c.Peek(testKey(0, 1), 8) {
		t.Fatal("Peek should reject a newer generation")
	}
}

func TestGenerationInvalidation(t *testing.T) {
	c := qcache.New(1 << 20)
	key := testKey(3, 0)
	var evals int
	eval := func() (*exec.Result, error) { evals++; return fakeResult(t, 2), nil }

	if _, state, _ := c.Do(key, 1, eval); state != qcache.StateMiss {
		t.Fatalf("cold Do state = %q", state)
	}
	// Same generation: served from cache.
	if _, state, _ := c.Do(key, 1, eval); state != qcache.StateHit {
		t.Fatalf("warm Do state = %q", state)
	}
	// Newer generation: the entry is stale and must be re-evaluated.
	if _, state, _ := c.Do(key, 2, eval); state != qcache.StateMiss {
		t.Fatalf("stale Do state = %q", state)
	}
	if evals != 2 {
		t.Fatalf("evaluations = %d, want 2", evals)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stale entry not replaced: %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := qcache.New(1 << 20)
	boom := errors.New("boom")
	_, _, err := c.Do(testKey(1, 1), 1, func() (*exec.Result, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
	// The next call evaluates again (and can succeed).
	res := fakeResult(t, 1)
	got, state, err := c.Do(testKey(1, 1), 1, func() (*exec.Result, error) { return res, nil })
	if err != nil || got != res || state != qcache.StateMiss {
		t.Fatalf("retry = (%p, %q, %v)", got, state, err)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// One budget for all keys: 64 results of ~4.5 KiB under 64 KiB, their
	// keys spread over every first byte.
	const budget = 64 << 10
	c := qcache.New(budget)
	store := func(i int) {
		t.Helper()
		res := fakeResult(t, 40)
		if _, _, err := c.Do(testKey(byte(i), byte(i)), 1, func() (*exec.Result, error) { return res, nil }); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("over budget after %d stores: %+v", i+1, st)
		}
	}
	for i := 0; i < 8; i++ {
		store(i)
	}
	// A hit makes entry 0 the most recent: it must outlive entries 1..7.
	if _, state, _ := c.Do(testKey(0, 0), 1, func() (*exec.Result, error) { return fakeResult(t, 40), nil }); state != qcache.StateHit {
		t.Fatalf("entry 0 state = %q, want hit", state)
	}
	for i := 8; i < 16; i++ {
		store(i)
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Entries+st.Evictions != 16 || st.Rejected != 0 {
		t.Fatalf("stats after 16 stores = %+v", st)
	}
	// Eviction follows recency across all keys: entry 0 (just hit) and the
	// newest stay, and the evicted ones are exactly the oldest of 1..15.
	if !c.Peek(testKey(0, 0), 1) {
		t.Fatal("recently hit entry evicted before older ones")
	}
	evicted := int(st.Evictions)
	for i := 1; i < 16; i++ {
		if got, want := c.Peek(testKey(byte(i), byte(i)), 1), i > evicted; got != want {
			t.Errorf("entry %d cached = %v, want %v (%d evictions)", i, got, want, evicted)
		}
	}
}

func TestOversizedResultNotCached(t *testing.T) {
	const budget = 64 << 10
	c := qcache.New(budget)
	do := func(tail byte, cells int) {
		t.Helper()
		res := fakeResult(t, cells)
		if _, state, err := c.Do(testKey(0, tail), 1, func() (*exec.Result, error) { return res, nil }); err != nil || state != qcache.StateMiss {
			t.Fatalf("Do = (%q, %v)", state, err)
		}
	}
	// More than a sixteenth of the budget, which the sharded cache
	// refused: the only per-result limit is the budget itself.
	do(1, 400)
	if st := c.Stats(); st.Entries != 1 || st.Rejected != 0 || st.Bytes <= budget/16 {
		t.Fatalf("result under the budget not cached: %+v", st)
	}
	do(2, 4000)
	if st := c.Stats(); st.Entries != 1 || st.Rejected != 1 || !c.Peek(testKey(0, 1), 1) {
		t.Fatalf("oversized result cached, uncounted, or evicted others: %+v", st)
	}
}

// TestSingleflight hammers one key from 16 goroutines and asserts that
// exactly one evaluation runs: the leader blocks until the 15 others have
// signalled that they joined the in-flight call, so none raced past it.
// Run with -race.
func TestSingleflight(t *testing.T) {
	const workers = 16
	c := qcache.New(1 << 20)
	joined := joinSignal(c, workers)
	key := testKey(9, 9)
	res := fakeResult(t, 8)

	var evals atomic.Int32
	release := make(chan struct{})
	eval := func() (*exec.Result, error) {
		evals.Add(1)
		<-release
		return res, nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, state, err := c.Do(key, 1, eval)
			if err != nil {
				errs <- err
				return
			}
			if got != res {
				errs <- fmt.Errorf("got %p, want shared %p", got, res)
			}
			if state != qcache.StateHit && state != qcache.StateMiss {
				errs <- fmt.Errorf("unexpected state %q", state)
			}
		}()
	}

	// Hold the evaluation open until all 15 followers joined it.
	for i := 0; i < workers-1; i++ {
		<-joined
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if n := evals.Load(); n != 1 {
		t.Fatalf("evaluations = %d, want exactly 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.DedupJoins != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d dedup joins", st, workers-1)
	}
}

// TestSingleflightLeaderFailureRetries pins the leader-failure contract:
// when the in-flight leader's evaluation fails (typically because the
// leader's own caller cancelled its context), a joined waiter must not
// inherit that error — it goes around, becomes the new leader, and
// evaluates for itself.
func TestSingleflightLeaderFailureRetries(t *testing.T) {
	c := qcache.New(1 << 20)
	joined := joinSignal(c, 1)
	key := testKey(3, 3)
	res := fakeResult(t, 4)

	started := make(chan struct{})
	hold := make(chan struct{})
	leaderErr := errors.New("leader context cancelled")
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(key, 1, func() (*exec.Result, error) {
			close(started)
			<-hold
			return nil, leaderErr
		})
		leaderDone <- err
	}()
	<-started

	var retries atomic.Int32
	waiterDone := make(chan error, 1)
	var waiterRes *exec.Result
	go func() {
		got, _, err := c.Do(key, 1, func() (*exec.Result, error) {
			retries.Add(1)
			return res, nil
		})
		waiterRes = got
		waiterDone <- err
	}()

	// The waiter has joined the leader's call before the leader fails.
	<-joined
	close(hold)

	if err := <-leaderDone; !errors.Is(err, leaderErr) {
		t.Fatalf("leader err = %v, want %v", err, leaderErr)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want nil (re-evaluated after leader failure)", err)
	}
	if waiterRes != res {
		t.Fatalf("waiter result = %p, want its own evaluation %p", waiterRes, res)
	}
	if n := retries.Load(); n != 1 {
		t.Fatalf("waiter evaluations = %d, want 1", n)
	}
}

// TestSingleflightWaiterContextCancel: a waiter joined on a slow leader
// must honor its own context and return promptly, leaving the leader
// undisturbed.
func TestSingleflightWaiterContextCancel(t *testing.T) {
	c := qcache.New(1 << 20)
	joined := joinSignal(c, 1)
	key := testKey(5, 5)
	res := fakeResult(t, 4)

	started := make(chan struct{})
	hold := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(key, 1, func() (*exec.Result, error) {
			close(started)
			<-hold
			return res, nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoContext(ctx, key, 1, func() (*exec.Result, error) {
			t.Error("cancelled waiter must not evaluate")
			return nil, nil
		})
		waiterDone <- err
	}()
	<-joined
	cancel()
	// The leader is still held: the waiter returns on its own context.
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(hold)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}

// tracked runs one statement the way a server does: under a context that
// tracks a Body.
func tracked(t *testing.T, c *qcache.Cache, key qcache.Key, gen uint64, res *exec.Result) (*exec.Result, qcache.State, *qcache.Body) {
	t.Helper()
	ctx, body := qcache.TrackBody(context.Background())
	got, state, err := c.DoContext(ctx, key, gen, func() (*exec.Result, error) { return res, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, state, body
}

// rowsOf is a fill that "encodes" n bytes and counts its calls.
func rowsOf(calls *atomic.Int32) func(*exec.Result, int) []byte {
	return func(res *exec.Result, n int) []byte {
		calls.Add(1)
		if res.Cube == nil {
			panic("fill was handed a result without its cube")
		}
		return bytes.Repeat([]byte{'r'}, n)
	}
}

// TestBodyLifecycle walks one entry through miss, measured length, the
// first hit that fills the rows, and the hits served from them.
func TestBodyLifecycle(t *testing.T) {
	c := qcache.New(1 << 20)
	key := testKey(1, 1)
	res := fakeResult(t, 100)
	var fills atomic.Int32
	fill := rowsOf(&fills)

	got, state, body := tracked(t, c, key, 1, res)
	if got != res || state != qcache.StateMiss {
		t.Fatalf("first Do = (%p, %q)", got, state)
	}
	cubeBytes := c.Stats().Bytes
	// A hit before any reply measured the rows has nothing to size them by.
	_, _, early := tracked(t, c, key, 1, nil)
	if rows, filled := early.Rows(fill); rows != nil || filled || fills.Load() != 0 {
		t.Fatalf("rows before SetLen = (%d bytes, %v), %d fills", len(rows), filled, fills.Load())
	}
	body.SetLen(5000)

	got, state, hit := tracked(t, c, key, 1, nil)
	if got != res || state != qcache.StateHit {
		t.Fatalf("first measured hit = (%p, %q), want the evaluated result", got, state)
	}
	rows, filled := hit.Rows(fill)
	if len(rows) != 5000 || !filled || fills.Load() != 1 {
		t.Fatalf("first hit rows = (%d bytes, %v), %d fills", len(rows), filled, fills.Load())
	}
	st := c.Stats()
	if st.BodyBytes != 5000 || st.Bytes < 5000 || st.Bytes >= cubeBytes+5000 || st.Entries != 1 {
		t.Fatalf("after the fill (cube was %d bytes): %+v", cubeBytes, st)
	}

	// Later hits get a result without its cube, the cell count and the
	// very same bytes; nothing is encoded again.
	got, state, later := tracked(t, c, key, 1, nil)
	if state != qcache.StateHit || got == nil || got.Cube != nil || later.Cells() != 100 {
		t.Fatalf("later hit = (%+v, %q), cells %d", got, state, later.Cells())
	}
	again, filled := later.Rows(fill)
	if &again[0] != &rows[0] || len(again) != len(rows) || filled || fills.Load() != 1 {
		t.Fatalf("later hit rows = (%d bytes, %v), %d fills", len(again), filled, fills.Load())
	}

	// A caller that tracks no Body needs the cube: the entry is no use to
	// it, so it evaluates, and its result replaces the rows.
	fresh := fakeResult(t, 100)
	got, state, err := c.Do(key, 1, func() (*exec.Result, error) { return fresh, nil })
	if err != nil || got != fresh || state != qcache.StateMiss {
		t.Fatalf("untracked Do on a rows-only entry = (%p, %q, %v), want a miss", got, state, err)
	}
	if st := c.Stats(); st.BodyBytes != 0 || st.Bytes != cubeBytes || st.Entries != 1 {
		t.Fatalf("after the replacement: %+v", st)
	}
}

// TestBodyDroppedWithEntry: a newer generation invalidates the rows with
// their entry, and an eviction takes them along.
func TestBodyDroppedWithEntry(t *testing.T) {
	c := qcache.New(64 << 10)
	var fills atomic.Int32
	keep := func(key qcache.Key, gen uint64) {
		t.Helper()
		_, _, body := tracked(t, c, key, gen, fakeResult(t, 40))
		body.SetLen(2000)
		_, _, hit := tracked(t, c, key, gen, nil)
		if rows, filled := hit.Rows(rowsOf(&fills)); rows == nil || !filled {
			t.Fatal("rows not filled")
		}
	}
	keep(testKey(1, 1), 1)
	if st := c.Stats(); st.BodyBytes != 2000 {
		t.Fatalf("stats = %+v", st)
	}
	res := fakeResult(t, 40)
	got, state, body := tracked(t, c, testKey(1, 1), 2, res)
	if got != res || state != qcache.StateMiss {
		t.Fatalf("Do under a newer generation = (%p, %q), want a miss", got, state)
	}
	if rows, _ := body.Rows(rowsOf(&fills)); rows != nil {
		t.Fatal("rows survived their entry's invalidation")
	}
	if st := c.Stats(); st.BodyBytes != 0 || st.Entries != 1 {
		t.Fatalf("after invalidation: %+v", st)
	}

	// Fill the cache with rows-bearing entries until the first is evicted.
	keep(testKey(2, 0), 2)
	for i := 1; c.Stats().Evictions == 0; i++ {
		keep(testKey(3, byte(i)), 2)
	}
	st := c.Stats()
	if c.Peek(testKey(1, 1), 2) || st.BodyBytes != 2000*(st.Entries) || st.Bytes > st.BudgetBytes {
		t.Fatalf("after eviction: %+v", st)
	}
}

// TestBodyUnderBudget: result plus rows stay under the budget — keeping
// rows evicts from the LRU tail, and rows that cannot fit are not kept
// (nor encoded into the cache at all when their length already says so).
func TestBodyUnderBudget(t *testing.T) {
	const budget = 64 << 10
	c := qcache.New(budget)
	var fills atomic.Int32
	tracked(t, c, testKey(1, 0), 1, fakeResult(t, 400)) // ~18 KiB, the oldest
	_, _, b := tracked(t, c, testKey(2, 0), 1, fakeResult(t, 100))
	_, _, big := tracked(t, c, testKey(3, 0), 1, fakeResult(t, 400))
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}

	big.SetLen(budget + 1)
	_, _, hit := tracked(t, c, testKey(3, 0), 1, nil)
	if rows, filled := hit.Rows(rowsOf(&fills)); rows != nil || filled || fills.Load() != 0 {
		t.Fatalf("rows longer than the budget = (%d bytes, %v), %d fills", len(rows), filled, fills.Load())
	}

	// Half the budget in rows on top of two 18 KiB results: the oldest goes.
	b.SetLen(budget / 2)
	_, _, hit = tracked(t, c, testKey(2, 0), 1, nil)
	if rows, filled := hit.Rows(rowsOf(&fills)); len(rows) != budget/2 || !filled {
		t.Fatalf("rows = (%d bytes, %v)", len(rows), filled)
	}
	st := c.Stats()
	if st.Bytes > budget || st.Entries != 2 || st.Evictions != 1 || st.BodyBytes != budget/2 ||
		c.Peek(testKey(1, 0), 1) || !c.Peek(testKey(2, 0), 1) || !c.Peek(testKey(3, 0), 1) {
		t.Fatalf("after keeping large rows: %+v", st)
	}

	// The length is a promise, not a proof: a fill that comes back larger
	// than fits still answers its caller and is not kept.
	_, _, small := tracked(t, c, testKey(4, 0), 1, fakeResult(t, 10))
	small.SetLen(100)
	_, _, hit = tracked(t, c, testKey(4, 0), 1, nil)
	rows, filled := hit.Rows(func(*exec.Result, int) []byte { return make([]byte, budget) })
	if len(rows) != budget || !filled {
		t.Fatalf("oversized fill = (%d bytes, %v), want it handed to the caller", len(rows), filled)
	}
	if st := c.Stats(); st.Bytes > budget || st.BodyBytes != budget/2 {
		t.Fatalf("oversized fill was kept: %+v", st)
	}
}

// TestBodyEvictedDuringFill: the entry goes away while its rows are being
// encoded; the caller still gets them, the cache does not account them.
func TestBodyEvictedDuringFill(t *testing.T) {
	c := qcache.New(1 << 20)
	key := testKey(1, 1)
	_, _, body := tracked(t, c, key, 1, fakeResult(t, 40))
	body.SetLen(1000)
	_, _, hit := tracked(t, c, key, 1, nil)
	rows, filled := hit.Rows(func(res *exec.Result, n int) []byte {
		// A newer generation replaces the entry mid-fill.
		tracked(t, c, key, 2, fakeResult(t, 40))
		return make([]byte, n)
	})
	if len(rows) != 1000 || !filled {
		t.Fatalf("rows = (%d bytes, %v)", len(rows), filled)
	}
	if st := c.Stats(); st.BodyBytes != 0 || st.Entries != 1 {
		t.Fatalf("rows of a removed entry were accounted: %+v", st)
	}
	got, state, _ := tracked(t, c, key, 2, nil)
	if state != qcache.StateHit || got.Cube == nil {
		t.Fatalf("the replacing entry lost its cube: (%+v, %q)", got, state)
	}
}

// TestBodyFirstHitConcurrent: 8 callers take the first measured hit of
// one entry at once. One of them encodes the rows; the rest either encode
// for themselves (nil rows) or are served the kept bytes. Run with -race.
func TestBodyFirstHitConcurrent(t *testing.T) {
	c := qcache.New(1 << 20)
	key := testKey(7, 7)
	res := fakeResult(t, 200)
	_, _, body := tracked(t, c, key, 1, res)
	body.SetLen(4096)

	var fills atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]byte, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, body := qcache.TrackBody(context.Background())
			r, state, err := c.DoContext(ctx, key, 1, nil)
			if err != nil || state != qcache.StateHit {
				t.Errorf("Do = (%q, %v)", state, err)
				return
			}
			rows, _ := body.Rows(rowsOf(&fills))
			if rows == nil && r.Cube == nil {
				t.Error("neither rows nor cube to reply from")
			}
			got[g] = rows
		}()
	}
	close(start)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills, want exactly 1", n)
	}
	var kept []byte
	for _, rows := range got {
		if rows == nil {
			continue
		}
		if kept != nil && &rows[0] != &kept[0] {
			t.Fatal("two callers were served different rows")
		}
		kept = rows
	}
	if st := c.Stats(); kept == nil || st.BodyBytes != int64(cap(kept)) || st.Entries != 1 {
		t.Fatalf("kept %d bytes, stats %+v", len(kept), st)
	}
}

// BenchmarkCacheHitParallel is the cost of a hit with every core probing
// at once: 64 resident entries, each goroutine walking its own sequence of
// keys. All of them take the one mutex, for a map lookup and a list
// splice; the number to hold against the statement around it (parse, bind
// and plan take tens of microseconds) before anyone shards the LRU again.
func BenchmarkCacheHitParallel(b *testing.B) {
	c := qcache.New(1 << 20)
	res := fakeResult(b, 4)
	const entries = 64
	for i := 0; i < entries; i++ {
		if _, _, err := c.Do(testKey(byte(i), byte(i)), 1, func() (*exec.Result, error) { return res, nil }); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 17
		for pb.Next() {
			i++
			if _, state, _ := c.Do(testKey(byte(i%entries), byte(i%entries)), 1, nil); state != qcache.StateHit {
				b.Error("resident entry missed")
				return
			}
		}
	})
}
