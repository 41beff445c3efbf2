package loadtest_test

import (
	"context"
	"errors"
	"testing"
	"time"

	assess "github.com/assess-olap/assess"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/loadtest"
	"github.com/assess-olap/assess/internal/sched"
	"github.com/assess-olap/assess/internal/server"
)

// newTarget builds an in-process serving stack: small sales dataset,
// admission with the given shape.
func newTarget(t *testing.T, slots, maxQueue int) (loadtest.HandlerTarget, *sched.Admission) {
	t.Helper()
	session, _, err := assess.NewSalesSession(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	adm := sched.NewAdmission(slots, maxQueue, 0)
	srv := server.New(session, server.WithAdmission(adm, ""))
	return loadtest.HandlerTarget{Handler: srv.Handler()}, adm
}

// TestClosedLoopSmoke is the short-mode harness run wired into the
// normal test suite: a small closed-loop experiment must complete with
// zero errors and sane latency accounting.
func TestClosedLoopSmoke(t *testing.T) {
	target, _ := newTarget(t, 8, 0)
	res := loadtest.Closed(context.Background(), target, loadtest.DefaultSalesMix(), 4, 25, 42)
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0", res.Errors)
	}
	if res.Shed != 0 {
		t.Fatalf("shed = %d with an unbounded queue, want 0", res.Shed)
	}
	if res.Requests != 4*25 {
		t.Fatalf("requests = %d, want %d", res.Requests, 4*25)
	}
	if got := len(res.Latencies); got != res.Requests {
		t.Fatalf("latencies = %d, want %d", got, res.Requests)
	}
	if res.Percentile(50) <= 0 || res.Percentile(99) < res.Percentile(50) {
		t.Fatalf("percentiles out of order: p50=%v p99=%v", res.Percentile(50), res.Percentile(99))
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	// Render the table — mostly asserting it doesn't blow up.
	if out := loadtest.Table([]loadtest.Result{res}); out == "" {
		t.Fatal("empty table")
	}
}

// TestOpenLoopSmoke runs a short Poisson arrival experiment.
func TestOpenLoopSmoke(t *testing.T) {
	target, _ := newTarget(t, 8, 0)
	res := loadtest.Open(context.Background(), target, loadtest.DefaultSalesMix(), 200, 250*time.Millisecond, 42)
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0", res.Errors)
	}
	if res.Requests == 0 {
		t.Fatal("open loop issued no requests")
	}
}

// countingTarget tallies Do calls for MultiTarget distribution checks.
type countingTarget struct{ calls int }

func (c *countingTarget) Do(context.Context, loadtest.Request) error {
	c.calls++
	return nil
}

// TestMultiTargetRoundRobin checks requests spread evenly across the
// fan-out targets.
func TestMultiTargetRoundRobin(t *testing.T) {
	a, b := &countingTarget{}, &countingTarget{}
	mt := &loadtest.MultiTarget{Targets: []loadtest.Target{a, b}}
	for i := 0; i < 10; i++ {
		if err := mt.Do(context.Background(), loadtest.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if a.calls != 5 || b.calls != 5 {
		t.Fatalf("calls split %d/%d, want 5/5", a.calls, b.calls)
	}
}

// TestMultiTargetAgainstCluster drives the harness round-robin against
// two handles of one distributed serving stack: a 2-shard in-process
// scatter-gather cluster must absorb the closed-loop smoke with zero
// errors and fan every query out to its shards.
func TestMultiTargetAgainstCluster(t *testing.T) {
	session, _, err := assess.NewSalesSession(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	fact, _ := session.Engine.Fact("SALES")
	level := dist.AutoShardLevel(fact.Schema)
	lc := dist.NewLocalCluster(2)
	if err := lc.AddFact("SALES", fact, level); err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator(session.Engine, dist.Config{})
	if err := coord.AddTable("SALES", level, lc.Clients(), true); err != nil {
		t.Fatal(err)
	}
	session.EnableDistributed(coord)
	srv := server.New(session)
	target := loadtest.HandlerTarget{Handler: srv.Handler()}

	mt := &loadtest.MultiTarget{Targets: []loadtest.Target{target, target}}
	res := loadtest.Closed(context.Background(), mt, loadtest.DefaultSalesMix(), 4, 10, 42)
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0", res.Errors)
	}
	if res.Requests != 4*10 {
		t.Fatalf("requests = %d, want %d", res.Requests, 4*10)
	}
	if st := coord.Stats(); st.Fanouts == 0 {
		t.Fatalf("coordinator saw no fanouts under load: %+v", st)
	}
}

// shedSignal passes requests through to a target and signals the first
// one that was shed.
type shedSignal struct {
	loadtest.Target
	shed chan struct{} // buffered 1
}

func (s shedSignal) Do(ctx context.Context, req loadtest.Request) error {
	err := s.Target.Do(ctx, req)
	if errors.Is(err, loadtest.ErrShed) {
		select {
		case s.shed <- struct{}{}:
		default:
		}
	}
	return err
}

// TestClosedLoopSheds overloads a 1-slot, 1-deep admission queue and
// checks shed traffic is tallied as shed, not as errors. The test holds
// the one slot itself until a request has been shed, so the overload does
// not depend on how long a statement takes: one worker queues, and every
// arrival behind it finds the queue full.
func TestClosedLoopSheds(t *testing.T) {
	inner, adm := newTarget(t, 1, 1)
	release, err := adm.Acquire(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	target := shedSignal{Target: inner, shed: make(chan struct{}, 1)}
	done := make(chan loadtest.Result, 1)
	go func() {
		done <- loadtest.Closed(context.Background(), target, loadtest.DefaultSalesMix(), 8, 10, 42)
	}()
	<-target.shed
	release(time.Millisecond)
	res := <-done
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (shed must not count as error)", res.Errors)
	}
	if res.Shed == 0 {
		t.Fatal("no requests shed under 8-way load on a 1-slot/1-queue server")
	}
	if res.Shed+res.Errors+len(res.Latencies) != res.Requests {
		t.Fatalf("accounting mismatch: %d shed + %d errs + %d ok != %d requests",
			res.Shed, res.Errors, len(res.Latencies), res.Requests)
	}
}
