package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
)

var errInjected = errors.New("injected worker crash")

func failingChains(lc *LocalCluster, failPrimary map[int]func(context.Context) error, replicas bool) [][]ShardClient {
	chains := make([][]ShardClient, len(lc.Workers))
	for i, w := range lc.Workers {
		primary := &LocalClient{Worker: w, Name: fmt.Sprintf("primary/%d", i)}
		if hook, ok := failPrimary[i]; ok {
			primary.Hook = hook
		}
		chains[i] = []ShardClient{primary}
		if replicas {
			chains[i] = append(chains[i], &LocalClient{Worker: w, Name: fmt.Sprintf("replica/%d", i)})
		}
	}
	return chains
}

func crash(context.Context) error { return errInjected }

// straggle blocks until the per-shard deadline kills the attempt — the
// in-process stand-in for a worker that died mid-query.
func straggle(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// hang blocks forever, ignoring the context entirely: a client that
// violates the cancellation contract. The coordinator must still
// return at its deadline, never hang.
func hang(context.Context) error {
	select {}
}

var failQ = engine.Query{Fact: "SALES", Group: mdm.GroupBy{{Hier: 3, Level: 2}}, Measures: []int{0, 1}}
var failOps = []mdm.AggOp{mdm.AggSum, mdm.AggAvg}

// TestRedispatchToReplica crashes shard 0's primary; the scan must
// succeed bit-exactly via the replica and count one re-dispatch.
func TestRedispatchToReplica(t *testing.T) {
	rig := newRig(t, 2000, 3, Config{}, func(lc *LocalCluster) [][]ShardClient {
		return failingChains(lc, map[int]func(context.Context) error{0: crash}, true)
	})
	want, err := rig.eng.ScanWithOps(context.Background(), failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rig.coord.Scan(context.Background(), failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	diffCubes(t, "redispatch", want, got)
	st := rig.coord.Stats()
	sh := st.Tables[0].Shards[0]
	if sh.Redispatches != 1 || sh.Errors != 1 {
		t.Fatalf("shard 0: redispatches=%d errors=%d, want 1/1", sh.Redispatches, sh.Errors)
	}
	if sh.Fallbacks != 0 {
		t.Fatalf("local fallback used with a healthy replica (%d)", sh.Fallbacks)
	}
}

// TestLocalFallback crashes every replica of shard 1; the coordinator
// must synthesize the shard's partial from its local copy, bit-exactly.
func TestLocalFallback(t *testing.T) {
	rig := newRig(t, 2000, 2, Config{}, func(lc *LocalCluster) [][]ShardClient {
		chains := failingChains(lc, map[int]func(context.Context) error{1: crash}, true)
		chains[1][1].(*LocalClient).Hook = crash // replica dies too
		return chains
	})
	want, err := rig.eng.ScanWithOps(context.Background(), failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rig.coord.Scan(context.Background(), failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	diffCubes(t, "local fallback", want, got)
	sh := rig.coord.Stats().Tables[0].Shards[1]
	if sh.Fallbacks != 1 {
		t.Fatalf("fallbacks=%d, want 1", sh.Fallbacks)
	}
}

// TestPolicyFailUnavailable removes the local fallback: with every
// replica of one shard dead and PolicyFail, the scan must return a
// typed *Unavailable naming the failed shard.
func TestPolicyFailUnavailable(t *testing.T) {
	rig := newRig(t, 1000, 2, Config{Policy: PolicyFail}, func(lc *LocalCluster) [][]ShardClient {
		return failingChains(lc, map[int]func(context.Context) error{1: crash}, false)
	})
	rig.coord.tables["SALES"].fallback = false
	_, err := rig.coord.Scan(context.Background(), failQ, failOps, names(2))
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatalf("error %v, want *Unavailable", err)
	}
	if u.Fact != "SALES" || len(u.Shards) != 1 || u.Shards[0] != 1 {
		t.Fatalf("unexpected Unavailable payload: %+v", u)
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if rig.coord.Stats().Unavailable != 1 {
		t.Fatalf("unavailable counter %d, want 1", rig.coord.Stats().Unavailable)
	}
}

// TestPolicyPartialAnnotates uses PolicyPartial with no fallback: the
// merged result must cover the healthy shard only, the context's
// PartialNote must name the degraded shard, and the fact version must
// bump so the degraded result cannot be cache-served as complete.
func TestPolicyPartialAnnotates(t *testing.T) {
	rig := newRig(t, 1000, 2, Config{Policy: PolicyPartial}, func(lc *LocalCluster) [][]ShardClient {
		return failingChains(lc, map[int]func(context.Context) error{0: crash}, false)
	})
	rig.coord.tables["SALES"].fallback = false
	verBefore := rig.ds.Fact.Version()
	ctx, note := TrackPartial(context.Background())
	got, err := rig.coord.Scan(ctx, failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	if !note.Partial() {
		t.Fatal("partial result not recorded in note")
	}
	if ds := note.DegradedShards(); len(ds) != 1 || ds[0] != "SALES/0" {
		t.Fatalf("degraded shards %v, want [SALES/0]", ds)
	}
	// The healthy shard alone: compare against a direct scan of shard 1.
	lq := failQ
	lq.Preds = append([]engine.Predicate(nil), engine.Predicate{
		Level: rig.level, Members: rig.coord.tables["SALES"].owned[1],
	})
	want, err := rig.eng.ScanWithOps(context.Background(), lq, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	diffCubes(t, "partial", want, got)
	if got := rig.ds.Fact.Version(); got <= verBefore {
		t.Fatalf("version %d did not advance past %d: partial could be cached as complete", got, verBefore)
	}
	if rig.coord.Stats().Partials != 1 {
		t.Fatalf("partials counter %d, want 1", rig.coord.Stats().Partials)
	}
}

// TestFanOutPanic gives shard 0 a primary whose Scan panics. The panic is
// recovered on the attempt's goroutine into an *engine.PanicError,
// counted once, and fails the attempt like any shard error: with a
// replica the replica serves the shard; without one the local copy does,
// or, with the fallback off, the fail policy answers *Unavailable
// carrying the panic. Every way, the process goes on.
func TestFanOutPanic(t *testing.T) {
	panics := obsv.Default.Counter("assess_query_panics_total", "")
	for _, c := range []struct {
		name     string
		replicas bool
		fallback bool
	}{{"2 replicas", true, true}, {"1 replica, local fallback", false, true}, {"1 replica, fail policy", false, false}} {
		rig := newRig(t, 2000, 2, Config{Policy: PolicyFail}, func(lc *LocalCluster) [][]ShardClient {
			return failingChains(lc, map[int]func(context.Context) error{0: func(context.Context) error {
				panic("injected shard panic")
			}}, c.replicas)
		})
		rig.coord.tables["SALES"].fallback = c.fallback
		want, err := rig.eng.ScanWithOps(context.Background(), failQ, failOps, names(2))
		if err != nil {
			t.Fatal(err)
		}
		before := panics.Value()
		got, err := rig.coord.Scan(context.Background(), failQ, failOps, names(2))
		if d := panics.Value() - before; d != 1 {
			t.Errorf("%s: %d panics counted, want 1", c.name, d)
		}
		sh := rig.coord.Stats().Tables[0].Shards[0]
		if sh.Errors != 1 {
			t.Errorf("%s: shard 0 errors %d, want 1", c.name, sh.Errors)
		}
		if !c.fallback {
			var u *Unavailable
			var pe *engine.PanicError
			if !errors.As(err, &u) || !errors.As(err, &pe) || pe.Value != "injected shard panic" || len(pe.Stack) == 0 {
				t.Fatalf("%s: error %v, want *Unavailable carrying the *engine.PanicError", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		diffCubes(t, c.name, want, got)
		if c.replicas && sh.Redispatches != 1 {
			t.Errorf("%s: redispatches %d, want 1", c.name, sh.Redispatches)
		}
		if !c.replicas && sh.Fallbacks != 1 {
			t.Errorf("%s: fallbacks %d, want 1", c.name, sh.Fallbacks)
		}
	}
}

// TestStragglerRedispatch injects a straggler (blocks until the
// per-shard deadline) as shard 0's primary: the replica must serve the
// shard: the re-dispatch counter and the exact result are the checks.
func TestStragglerRedispatch(t *testing.T) {
	rig := newRig(t, 2000, 2, Config{ShardTimeout: 50 * time.Millisecond}, func(lc *LocalCluster) [][]ShardClient {
		return failingChains(lc, map[int]func(context.Context) error{0: straggle}, true)
	})
	want, err := rig.eng.ScanWithOps(context.Background(), failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rig.coord.Scan(context.Background(), failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	diffCubes(t, "straggler", want, got)
	if sh := rig.coord.Stats().Tables[0].Shards[0]; sh.Redispatches != 1 {
		t.Fatalf("redispatches=%d, want 1", sh.Redispatches)
	}
}

// TestHangingClientNeverHangs gives shard 0 a client that ignores
// cancellation entirely and no replica: the coordinator must abandon
// the attempt at its deadline and serve the shard from the local copy.
func TestHangingClientNeverHangs(t *testing.T) {
	rig := newRig(t, 1000, 2, Config{ShardTimeout: 50 * time.Millisecond}, func(lc *LocalCluster) [][]ShardClient {
		return failingChains(lc, map[int]func(context.Context) error{0: hang}, false)
	})
	want, err := rig.eng.ScanWithOps(context.Background(), failQ, failOps, names(2))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		c   *cube.Cube
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := rig.coord.Scan(context.Background(), failQ, failOps, names(2))
		done <- result{c, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		diffCubes(t, "hang", want, r.c)
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator hung on a cancellation-ignoring client")
	}
}

// TestCallerCancellation cancels the caller's context mid-fanout — from
// inside the straggle hook, once both shards have entered it, so the
// fan-out is provably in flight everywhere and no clock is involved: the
// scan must return the context error, not a policy error.
func TestCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var entered atomic.Int32
	straggleThenCancel := func(actx context.Context) error {
		if entered.Add(1) == 2 {
			cancel()
		}
		return straggle(actx)
	}
	rig := newRig(t, 1000, 2, Config{ShardTimeout: time.Minute, Policy: PolicyPartial}, func(lc *LocalCluster) [][]ShardClient {
		return failingChains(lc, map[int]func(context.Context) error{0: straggleThenCancel, 1: straggleThenCancel}, false)
	})
	rig.coord.tables["SALES"].fallback = false
	_, err := rig.coord.Scan(ctx, failQ, failOps, names(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestWorkerScanHonoursCancellation: a worker asked to scan under a
// dead context — a coordinator that abandoned the attempt, a client
// that hung up — returns the context's error instead of scanning its
// shard to the end, and does not count a served scan.
func TestWorkerScanHonoursCancellation(t *testing.T) {
	rig := newRig(t, 1000, 2, Config{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := &ScanRequest{Fact: "SALES", Group: failQ.Group, Measures: failQ.Measures, Ops: []int{int(failOps[0]), int(failOps[1])}, Names: names(2)}
	w := rig.lc.Workers[0]
	if _, _, err := w.Scan(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if got := w.Stats().Scans; got != 0 {
		t.Fatalf("cancelled scan counted as served (%d)", got)
	}
	if _, c, err := w.Scan(context.Background(), req); err != nil || c.Len() == 0 {
		t.Fatalf("live scan: %v", err)
	}
}

// TestWorkerScanRejectsMalformed posts requests no coordinator would send
// to a worker's /dist/scan. What the request gets wrong about the schema
// or about itself is a 422, never a panic — the accumulate loops run on
// morsel goroutines, where a panic takes the process — and what is merely
// unusual is answered.
func TestWorkerScanRejectsMalformed(t *testing.T) {
	rig := newRig(t, 1000, 2, Config{}, nil)
	srv := httptest.NewServer(rig.lc.Workers[0].Handler())
	defer srv.Close()
	country := mdm.LevelRef{Hier: 3, Level: 2}
	for _, tc := range []struct {
		name string
		req  ScanRequest
		ok   bool
	}{
		{"well-formed", ScanRequest{Group: []mdm.LevelRef{country}, Measures: []int{0, 1}, Ops: []int{0, 1}, Names: names(2)}, true},
		{"group level past the hierarchy", ScanRequest{Group: []mdm.LevelRef{{Hier: 0, Level: 9}}, Measures: []int{0}, Ops: []int{0}, Names: names(1)}, false},
		{"negative group level", ScanRequest{Group: []mdm.LevelRef{{Hier: 0, Level: -1}}, Measures: []int{0}, Ops: []int{0}, Names: names(1)}, false},
		{"group hierarchy out of range", ScanRequest{Group: []mdm.LevelRef{{Hier: 7, Level: 0}}, Measures: []int{0}, Ops: []int{0}, Names: names(1)}, false},
		{"fewer operators than measures", ScanRequest{Group: []mdm.LevelRef{country}, Measures: []int{0, 1}, Ops: []int{0}, Names: names(1)}, false},
		{"fewer names than operators", ScanRequest{Group: []mdm.LevelRef{country}, Measures: []int{0, 1}, Ops: []int{0, 0}, Names: names(1)}, false},
		{"unknown operator", ScanRequest{Group: []mdm.LevelRef{country}, Measures: []int{0}, Ops: []int{99}, Names: names(1)}, false},
		{"negative operator", ScanRequest{Group: []mdm.LevelRef{country}, Measures: []int{0}, Ops: []int{-1}, Names: names(1)}, false},
		{"a hierarchy grouped by twice", ScanRequest{Group: []mdm.LevelRef{{Hier: 3, Level: 0}, country}, Measures: []int{0}, Ops: []int{0}, Names: names(1)}, true},
		{"predicate members outside the dictionary", ScanRequest{Group: []mdm.LevelRef{country}, Measures: []int{0}, Ops: []int{0}, Names: names(1),
			Preds: []WirePred{{Hier: 2, Level: 0, Members: []int32{-5, 3, 1 << 30}}}}, true},
	} {
		tc.req.Fact = "SALES"
		body, err := json.Marshal(&tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/dist/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		want := http.StatusUnprocessableEntity
		if tc.ok {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, want)
		}
	}
}
