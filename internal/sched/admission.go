// Package sched is the server's admission control: per-tenant fair
// queuing, bounded queue depth, and latency-based backpressure in front
// of query execution. It is wired through internal/server and never
// changes what a query computes — admission only decides when (or
// whether) a request runs.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Admission is the server's admission controller. It bounds concurrent
// query execution to a fixed number of slots, queues the overflow with
// per-tenant round-robin fairness (one tenant's burst cannot starve
// another's steady trickle), sheds load when the queue is full, and —
// when a latency budget is configured — sheds early when the p99-based
// completion estimate for a new arrival already exceeds the budget
// (429 + Retry-After at the HTTP layer, see internal/server).
type Admission struct {
	slots    int
	maxQueue int
	budget   time.Duration

	mu      sync.Mutex
	active  int
	queued  int
	tenants map[string]*tenantQueue
	order   []string // tenants with waiters, in arrival order
	rr      int      // round-robin cursor into order
	lat     latWindow

	admitted  int64
	rejFull   int64
	rejBudget int64
	cancelled int64

	onEnqueue func() // test hook: a caller has joined the queue and is about to wait
}

type tenantQueue struct {
	name    string
	waiters []*waiter
}

type waiter struct {
	ch        chan struct{}
	granted   bool
	cancelled bool
}

// Rejection is the error returned when a request is shed. RetryAfter is
// the server's backoff hint (the Retry-After header).
type Rejection struct {
	Reason     string // "queue_full" or "over_budget"
	RetryAfter time.Duration
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("sched: request rejected (%s), retry after %v", r.Reason, r.RetryAfter)
}

// NewAdmission builds an admission controller. slots <= 0 selects
// GOMAXPROCS; maxQueue <= 0 means an unbounded queue; budget 0 disables
// latency backpressure.
func NewAdmission(slots, maxQueue int, budget time.Duration) *Admission {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Admission{
		slots:    slots,
		maxQueue: maxQueue,
		budget:   budget,
		tenants:  make(map[string]*tenantQueue),
	}
}

// Acquire admits one request for tenant, blocking in the fair queue when
// all slots are busy. On success it returns a release function the
// caller must invoke exactly once with the request's service latency
// (which feeds the p99 estimate). It returns a *Rejection when the
// request is shed, or the context error if the caller gave up waiting.
func (a *Admission) Acquire(ctx context.Context, tenant string) (func(latency time.Duration), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.mu.Lock()
	// Backpressure: estimate what a new arrival would see. Never shed
	// while a slot is free — an idle server always accepts.
	if a.budget > 0 && a.active >= a.slots {
		if est := a.estimateLocked(); est > a.budget {
			a.rejBudget++
			a.mu.Unlock()
			mRejectedBudget.Inc()
			return nil, &Rejection{Reason: "over_budget", RetryAfter: retryAfter(est)}
		}
	}
	if a.active < a.slots && a.queued == 0 {
		a.active++
		a.admitted++
		a.mu.Unlock()
		mAdmitted.Inc()
		return a.releaseFunc(), nil
	}
	if a.maxQueue > 0 && a.queued >= a.maxQueue {
		est := a.estimateLocked()
		a.rejFull++
		a.mu.Unlock()
		mRejectedFull.Inc()
		return nil, &Rejection{Reason: "queue_full", RetryAfter: retryAfter(est)}
	}
	w := &waiter{ch: make(chan struct{})}
	tq := a.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{name: tenant}
		a.tenants[tenant] = tq
	}
	if len(tq.waiters) == 0 {
		a.order = append(a.order, tenant)
	}
	tq.waiters = append(tq.waiters, w)
	a.queued++
	gQueueDepth.Set(float64(a.queued))
	a.mu.Unlock()
	if a.onEnqueue != nil {
		a.onEnqueue()
	}

	t0 := time.Now()
	select {
	case <-w.ch:
		hWaitSeconds.Observe(time.Since(t0).Seconds())
		mAdmitted.Inc()
		return a.releaseFunc(), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Lost the race with a grant: we own a slot after all — give
			// it back and hand it to the next waiter.
			a.active--
			a.dispatchLocked()
			a.mu.Unlock()
			return nil, ctx.Err()
		}
		w.cancelled = true
		a.queued--
		a.cancelled++
		gQueueDepth.Set(float64(a.queued))
		a.mu.Unlock()
		mWaitCancelled.Inc()
		return nil, ctx.Err()
	}
}

func (a *Admission) releaseFunc() func(time.Duration) {
	var once sync.Once
	return func(latency time.Duration) {
		once.Do(func() {
			a.mu.Lock()
			a.lat.add(latency.Seconds())
			a.active--
			a.dispatchLocked()
			a.mu.Unlock()
		})
	}
}

// dispatchLocked grants free slots to queued waiters, one tenant at a
// time in round-robin order. Cancelled waiters are skipped lazily (their
// queue accounting was already undone at cancel time).
func (a *Admission) dispatchLocked() {
	for a.active < a.slots && len(a.order) > 0 {
		if a.rr >= len(a.order) {
			a.rr = 0
		}
		name := a.order[a.rr]
		tq := a.tenants[name]
		var w *waiter
		for w == nil && len(tq.waiters) > 0 {
			head := tq.waiters[0]
			tq.waiters = tq.waiters[1:]
			if !head.cancelled {
				w = head
			}
		}
		if len(tq.waiters) == 0 {
			delete(a.tenants, name)
			a.order = append(a.order[:a.rr], a.order[a.rr+1:]...)
		} else {
			a.rr++
		}
		if w == nil {
			continue
		}
		w.granted = true
		a.active++
		a.queued--
		a.admitted++
		gQueueDepth.Set(float64(a.queued))
		close(w.ch)
	}
}

// estimateLocked is the completion-time estimate a new arrival faces:
// the p99 of recent service latencies scaled by the queueing depth ahead
// of it (each slots-worth of waiters adds roughly one service time).
func (a *Admission) estimateLocked() time.Duration {
	p99 := a.lat.p99()
	if p99 == 0 {
		return 0
	}
	depth := float64(a.queued+a.active) / float64(a.slots)
	if depth < 1 {
		depth = 1
	}
	return time.Duration(p99 * depth * float64(time.Second))
}

// retryAfter clamps an estimate into a sane Retry-After hint.
func retryAfter(est time.Duration) time.Duration {
	const lo, hi = time.Second, 30 * time.Second
	if est < lo {
		return lo
	}
	if est > hi {
		return hi
	}
	return est
}

// latWindow is a fixed ring of recent service latencies (seconds) with a
// cached p99, recomputed every few inserts — cheap enough to live under
// the admission mutex.
type latWindow struct {
	buf    [256]float64
	n      int
	cached float64
	stale  int
}

func (l *latWindow) add(secs float64) {
	l.buf[l.n%len(l.buf)] = secs
	l.n++
	l.stale++
	if l.stale >= 8 || l.n <= 8 {
		l.recompute()
	}
}

func (l *latWindow) p99() float64 { return l.cached }

func (l *latWindow) recompute() {
	l.stale = 0
	occ := l.n
	if occ > len(l.buf) {
		occ = len(l.buf)
	}
	if occ == 0 {
		l.cached = 0
		return
	}
	s := make([]float64, occ)
	copy(s, l.buf[:occ])
	sort.Float64s(s)
	idx := (occ*99 + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > occ {
		idx = occ
	}
	l.cached = s[idx-1]
}

// AdmissionStats is a point-in-time snapshot for the /stats endpoint.
type AdmissionStats struct {
	Slots              int     `json:"slots"`
	MaxQueue           int     `json:"maxQueue"`
	BudgetMillis       int64   `json:"budgetMillis,omitempty"`
	Active             int     `json:"active"`
	Queued             int     `json:"queued"`
	Tenants            int     `json:"tenants"`
	Admitted           int64   `json:"admitted"`
	RejectedQueueFull  int64   `json:"rejectedQueueFull"`
	RejectedOverBudget int64   `json:"rejectedOverBudget"`
	CancelledWaits     int64   `json:"cancelledWaits"`
	P99EstimateMillis  float64 `json:"p99EstimateMillis"`
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Slots:              a.slots,
		MaxQueue:           a.maxQueue,
		BudgetMillis:       a.budget.Milliseconds(),
		Active:             a.active,
		Queued:             a.queued,
		Tenants:            len(a.tenants),
		Admitted:           a.admitted,
		RejectedQueueFull:  a.rejFull,
		RejectedOverBudget: a.rejBudget,
		CancelledWaits:     a.cancelled,
		P99EstimateMillis:  float64(a.estimateLocked()) / float64(time.Millisecond),
	}
}
