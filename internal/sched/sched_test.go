package sched_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/sched"
)

// enqueued installs an enqueue hook on a and returns the channel it
// signals: one receive per caller that has joined the queue.
func enqueued(a *sched.Admission) <-chan struct{} {
	ch := make(chan struct{}, 8) // more than any test here queues at once
	a.SetOnEnqueue(func() { ch <- struct{}{} })
	return ch
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
	joined := enqueued(a)
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
	<-joined
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
	joined := enqueued(a)
	release, err := a.Acquire(context.Background(), "A")
	if err != nil {
		t.Fatal(err)
	}
	type grant struct {
		tenant  string
		release func(time.Duration)
	}
	grants := make(chan grant, 8)
	enqueue := func(tenant string) {
		go func() {
			r, err := a.Acquire(context.Background(), tenant)
			if err != nil {
				t.Errorf("acquire %s: %v", tenant, err)
				return
			}
			grants <- grant{tenant, r}
		}()
		<-joined
	}
	// Deterministic arrival order: A, A, A, then B.
	enqueue("A")
	enqueue("A")
	enqueue("A")
	enqueue("B")
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
	joined := enqueued(a)
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
	<-joined
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The waiter left the queue before Acquire returned.
	if st := a.Stats(); st.Queued != 0 {
		t.Fatalf("queued = %d after the cancelled acquire returned, want 0", st.Queued)
	}
	// The cancelled waiter must not absorb the next grant.
	release(time.Millisecond)
	if _, err := a.Acquire(context.Background(), "t"); err != nil {
		t.Fatalf("acquire after cancel rejected: %v", err)
	}
	if st := a.Stats(); st.CancelledWaits != 1 {
		t.Fatalf("cancelledWaits = %d, want 1", st.CancelledWaits)
	}
}
