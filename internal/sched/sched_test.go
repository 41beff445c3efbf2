package sched_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	assess "github.com/assess-olap/assess"
	"github.com/assess-olap/assess/internal/sched"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionFastPath(t *testing.T) {
	a := sched.NewAdmission(2, 0, 0)
	r1, err := a.Acquire(context.Background(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background(), "t2")
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Active != 2 || st.Queued != 0 || st.Admitted != 2 {
		t.Fatalf("stats = %+v, want active=2 queued=0 admitted=2", st)
	}
	r1(time.Millisecond)
	r1(time.Millisecond) // double release must be a no-op
	r2(time.Millisecond)
	if st := a.Stats(); st.Active != 0 {
		t.Fatalf("active = %d after release, want 0", st.Active)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	a := sched.NewAdmission(1, 1, 0)
	release, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot.
	queued := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background(), "t")
		if err == nil {
			r(time.Millisecond)
		}
		queued <- err
	}()
	waitFor(t, func() bool { return a.Stats().Queued == 1 })
	// Queue is full: the next arrival is shed.
	_, err = a.Acquire(context.Background(), "t")
	var rej *sched.Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *Rejection", err)
	}
	if rej.Reason != "queue_full" {
		t.Fatalf("reason = %q, want queue_full", rej.Reason)
	}
	if rej.RetryAfter < time.Second || rej.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter = %v, want within [1s, 30s]", rej.RetryAfter)
	}
	release(time.Millisecond)
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	if st := a.Stats(); st.RejectedQueueFull != 1 {
		t.Fatalf("rejectedQueueFull = %d, want 1", st.RejectedQueueFull)
	}
}

// TestAdmissionFairness checks per-tenant round-robin: with one slot and
// tenant A holding a deep queue, a single waiter from tenant B is
// granted ahead of A's backlog.
func TestAdmissionFairness(t *testing.T) {
	a := sched.NewAdmission(1, 0, 0)
	release, err := a.Acquire(context.Background(), "A")
	if err != nil {
		t.Fatal(err)
	}
	type grant struct {
		tenant  string
		release func(time.Duration)
	}
	grants := make(chan grant, 8)
	enqueue := func(tenant string, want int) {
		go func() {
			r, err := a.Acquire(context.Background(), tenant)
			if err != nil {
				t.Errorf("acquire %s: %v", tenant, err)
				return
			}
			grants <- grant{tenant, r}
		}()
		waitFor(t, func() bool { return a.Stats().Queued == want })
	}
	// Deterministic arrival order: A, A, A, then B.
	enqueue("A", 1)
	enqueue("A", 2)
	enqueue("A", 3)
	enqueue("B", 4)
	release(0)
	// Grants must alternate tenants: A, B, A, A.
	var order []string
	for i := 0; i < 4; i++ {
		g := <-grants
		order = append(order, g.tenant)
		g.release(0)
	}
	want := []string{"A", "B", "A", "A"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestAdmissionBudgetSheds(t *testing.T) {
	a := sched.NewAdmission(1, 0, 100*time.Millisecond)
	// Feed the latency window with slow services so the p99 estimate
	// exceeds the budget.
	for i := 0; i < 16; i++ {
		r, err := a.Acquire(context.Background(), "t")
		if err != nil {
			t.Fatal(err)
		}
		r(2 * time.Second)
	}
	// An idle server must still accept, whatever the estimate says.
	release, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatalf("idle acquire rejected: %v", err)
	}
	// With the slot busy, the estimate (~2s) exceeds the 100ms budget.
	_, err = a.Acquire(context.Background(), "t")
	var rej *sched.Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *Rejection", err)
	}
	if rej.Reason != "over_budget" {
		t.Fatalf("reason = %q, want over_budget", rej.Reason)
	}
	release(time.Millisecond)
	if _, err := a.Acquire(context.Background(), "t"); err != nil {
		t.Fatalf("acquire after drain rejected: %v", err)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := sched.NewAdmission(1, 0, 0)
	release, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, "t")
		got <- err
	}()
	waitFor(t, func() bool { return a.Stats().Queued == 1 })
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return a.Stats().Queued == 0 })
	// The cancelled waiter must not absorb the next grant.
	release(time.Millisecond)
	if _, err := a.Acquire(context.Background(), "t"); err != nil {
		t.Fatalf("acquire after cancel rejected: %v", err)
	}
	if st := a.Stats(); st.CancelledWaits != 1 {
		t.Fatalf("cancelledWaits = %d, want 1", st.CancelledWaits)
	}
}

// TestBatcherCoalesces drives concurrent identical-fact queries through
// a session with shared scans enabled and checks (a) results are
// bit-exact against an unbatched session, (b) at least one multi-query
// batch formed.
func TestBatcherCoalesces(t *testing.T) {
	shared, _, err := assess.NewSalesSession(4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	shared.EnableSharedScans(100 * time.Millisecond)
	solo, _, err := assess.NewSalesSession(4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		`with SALES by product get quantity`,
		`with SALES by country get quantity`,
		`with SALES by product, country get quantity`,
		`with SALES for country = 'Italy' by product get quantity`,
	}
	const fan = 3 // goroutines per statement
	var wg sync.WaitGroup
	errs := make(chan error, len(stmts)*fan)
	start := make(chan struct{})
	for _, stmt := range stmts {
		for i := 0; i < fan; i++ {
			wg.Add(1)
			go func(stmt string) {
				defer wg.Done()
				<-start
				qr, err := shared.QueryContext(context.Background(), stmt)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", stmt, err)
					return
				}
				want, err := solo.QueryContext(context.Background(), stmt)
				if err != nil {
					errs <- err
					return
				}
				if qr.Cube.Len() != want.Cube.Len() {
					errs <- fmt.Errorf("%s: %d cells, want %d", stmt, qr.Cube.Len(), want.Cube.Len())
					return
				}
				for j := range want.Cube.Coords {
					for p := range want.Cube.Coords[j] {
						if qr.Cube.Coords[j][p] != want.Cube.Coords[j][p] {
							errs <- fmt.Errorf("%s: coord mismatch at %d", stmt, j)
							return
						}
					}
					for m := range want.Cube.Cols {
						if qr.Cube.Cols[m][j] != want.Cube.Cols[m][j] {
							errs <- fmt.Errorf("%s: value mismatch at %d", stmt, j)
							return
						}
					}
				}
			}(stmt)
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st, ok := shared.BatcherStats()
	if !ok {
		t.Fatal("BatcherStats not available after EnableSharedScans")
	}
	if st.Queries != int64(len(stmts)*fan) {
		t.Fatalf("batched queries = %d, want %d", st.Queries, len(stmts)*fan)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("maxBatch = %d, want >= 2 (no coalescing happened)", st.MaxBatch)
	}
	if st.Batches >= st.Queries {
		t.Fatalf("batches = %d, queries = %d: nothing coalesced", st.Batches, st.Queries)
	}
}
