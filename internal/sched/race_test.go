package sched_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	assess "github.com/assess-olap/assess"
	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/sched"
)

// hangups collects the cancel functions of requests that are to be
// abandoned, and drops them all when the event the test is about occurs:
// cancellation lands wherever the abandoned requests happen to be, and no
// timer decides when.
type hangups struct {
	mu  sync.Mutex
	fns []context.CancelFunc
}

func (h *hangups) add(cancel context.CancelFunc) {
	h.mu.Lock()
	h.fns = append(h.fns, cancel)
	h.mu.Unlock()
}

func (h *hangups) fire() {
	h.mu.Lock()
	fns := h.fns
	h.fns = nil
	h.mu.Unlock()
	for _, cancel := range fns {
		cancel()
	}
}

// TestAdmissionStress hammers the admission controller from 32
// goroutines mixing normal acquire/release, queued waits, context
// cancellation, and shed traffic (tiny queue + tight budget), then checks
// the accounting balances. One acquire in three is abandoned: its context
// is cancelled the next time any caller joins the queue — itself, as soon
// as it has queued, or whoever queues while it waits or holds a slot. Run
// under -race.
func TestAdmissionStress(t *testing.T) {
	a := sched.NewAdmission(2, 4, 50*time.Millisecond)
	var abandoned hangups
	a.SetOnEnqueue(abandoned.fire)
	tenants := []string{"a", "b", "c", "d"}
	const workers = 32
	var wg sync.WaitGroup
	var ok, shed, cancelled int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(3) == 0 {
					ctx, cancel = context.WithCancel(ctx)
					abandoned.add(cancel)
				}
				release, err := a.Acquire(ctx, tenants[rng.Intn(len(tenants))])
				var rej *sched.Rejection
				switch {
				case err == nil:
					// Vary the reported latency so the p99 window moves and
					// the budget path stays live.
					lat := time.Duration(rng.Intn(int(100 * time.Millisecond)))
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					release(lat)
					release(lat) // double release must stay a no-op
					mu.Lock()
					ok++
					mu.Unlock()
				case errors.As(err, &rej):
					mu.Lock()
					shed++
					mu.Unlock()
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					mu.Lock()
					cancelled++
					mu.Unlock()
				default:
					t.Errorf("unexpected acquire error: %v", err)
					cancel()
					return
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	st := a.Stats()
	t.Logf("%d ok, %d shed, %d cancelled", ok, shed, cancelled)
	if st.Active != 0 || st.Queued != 0 {
		t.Fatalf("controller not drained: %+v", st)
	}
	if got := ok + shed + cancelled; got != workers*50 {
		t.Fatalf("accounting: %d ok + %d shed + %d cancelled != %d", ok, shed, cancelled, workers*50)
	}
	if st.Admitted < ok {
		t.Fatalf("admitted %d < %d successful acquires", st.Admitted, ok)
	}
	// A grant can race a cancellation (the waiter wins the slot and gives
	// it back), so admitted may exceed ok — but never by more than the
	// cancelled count.
	if st.Admitted > ok+cancelled {
		t.Fatalf("admitted %d > ok %d + cancelled %d", st.Admitted, ok, cancelled)
	}
}

// TestScanAppendRace races appends to a segment-backed fact against 32
// query goroutines with the query-result cache on, a quarter of their
// statements abandoned when the next append lands (disconnects, mid-scan
// where that is where the statement is). After the writer finishes,
// results must match a fresh uncached session over the same fact —
// generation-based invalidation must not serve pre-append results. Run
// under -race.
func TestScanAppendRace(t *testing.T) {
	ds := assess.GenerateSales(3000, 5)
	dir := t.TempDir()
	opts := colstore.Options{SegmentRows: 256, AutoCompactRows: -1}
	if err := persist.SaveCubeDir(dir, ds.Fact, opts); err != nil {
		t.Fatal(err)
	}
	fact, st, err := persist.OpenCubeDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	s := assess.NewSession()
	if err := s.RegisterCube("SALES", fact); err != nil {
		t.Fatal(err)
	}
	s.EnableCache(1 << 20)

	gets := []string{
		`with SALES by product get quantity`,
		`with SALES by country get quantity`,
		`with SALES for country = 'Italy' by product get quantity`,
	}
	assesses := []string{
		`with SALES for country = 'Italy' by product, country assess quantity labels quartiles`,
		`with SALES by product assess quantity labels quartiles`,
	}

	var disconnects hangups
	stop := make(chan struct{})
	// tick holds at most one "a reader finished a statement" signal: the
	// writer takes one between appends, so every append lands with reads
	// in flight however fast or slow the host runs them.
	tick := make(chan struct{}, 1)
	var wg sync.WaitGroup
	errCh := make(chan error, 32) // one per reader
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(4) == 0 {
					// A disconnecting client: gone at the next append.
					ctx, cancel = context.WithCancel(ctx)
					disconnects.add(cancel)
				}
				var err error
				if rng.Intn(2) == 0 {
					_, err = s.QueryContext(ctx, gets[rng.Intn(len(gets))])
				} else {
					_, _, err = s.ExecTrackedContext(ctx, assesses[rng.Intn(len(assesses))])
				}
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					errCh <- err
					return
				}
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}(w)
	}
	finish := func() {
		close(stop)
		wg.Wait()
	}

	// The writer: append copies of existing rows while scans are in
	// flight. Each append WALs the row and bumps the fact version, so
	// the session generation moves under the readers' feet.
	nh, nm := len(ds.Fact.Keys), len(ds.Fact.Meas)
	for i := 0; i < 60; i++ {
		keys := make([]int32, nh)
		vals := make([]float64, nm)
		for h := range keys {
			keys[h] = ds.Fact.Keys[h][i]
		}
		for m := range vals {
			vals[m] = ds.Fact.Meas[m][i]
		}
		if err := fact.Append(keys, vals); err != nil {
			finish()
			t.Fatal(err)
		}
		disconnects.fire()
		select {
		case <-tick:
		case err := <-errCh:
			finish()
			t.Fatal(err)
		}
	}
	finish()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Coherence: the cached session must now agree with a fresh plain
	// session over the same (post-append) fact.
	fresh := assess.NewSession()
	if err := fresh.RegisterCube("SALES", fact); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range gets {
		got, err := s.QueryContext(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.QueryContext(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffCubes(got.Cube, want.Cube); d != "" {
			t.Errorf("%s: %s", stmt, d)
		}
	}
	for _, stmt := range assesses {
		got, _, err := s.ExecTrackedContext(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.ExecTrackedContext(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.Rows()
		if err != nil {
			t.Fatal(err)
		}
		wr, err := want.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(gr) != len(wr) {
			t.Errorf("%s: %d rows, want %d", stmt, len(gr), len(wr))
			continue
		}
		for i := range wr {
			if fmt.Sprintf("%+v", gr[i]) != fmt.Sprintf("%+v", wr[i]) {
				t.Errorf("%s: row %d = %+v, want %+v", stmt, i, gr[i], wr[i])
				break
			}
		}
	}
}

func diffCubes(got, want *cube.Cube) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d cells, want %d", got.Len(), want.Len())
	}
	for p := range want.Keys {
		if !slices.Equal(got.Keys[p], want.Keys[p]) {
			return fmt.Sprintf("coordinate mismatch at position %d", p)
		}
	}
	for m := range want.Cols {
		for i := range want.Cols[m] {
			if got.Cols[m][i] != want.Cols[m][i] {
				return fmt.Sprintf("value mismatch at measure %d cell %d", m, i)
			}
		}
	}
	return ""
}
