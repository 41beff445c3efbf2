package dist

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// testRig is a coordinator over an in-process cluster plus a solo
// engine holding the same fact, so tests can diff distributed results
// against the engine's own scans.
type testRig struct {
	ds    *sales.Dataset
	coord *Coordinator
	lc    *LocalCluster
	eng   *engine.Engine
	level mdm.LevelRef
}

func newRig(t *testing.T, rows, shards int, cfg Config, chains func(*LocalCluster) [][]ShardClient) *testRig {
	t.Helper()
	ds := sales.Generate(rows, 7)
	eng := engine.New()
	if err := eng.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	// product, the widest base dict: a row's product key is its shard-level
	// member, so tests name a row's owner as shardOf(key, shards).
	level := mdm.LevelRef{Hier: 2, Level: 0}
	lc := NewLocalCluster(shards)
	if err := lc.AddFact("SALES", ds.Fact, level); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, cfg)
	cl := lc.Clients()
	if chains != nil {
		cl = chains(lc)
	}
	if err := coord.AddTable("SALES", level, cl, true); err != nil {
		t.Fatal(err)
	}
	return &testRig{ds: ds, coord: coord, lc: lc, eng: eng, level: level}
}

// diffCubes compares two cubes cell-by-cell. Sales measures are
// floats, so cross-shard sums may differ from a solo scan by a few
// ULPs (float addition is not associative); a tiny relative tolerance
// absorbs that. Bit-exactness over integer measures — where any
// association order is exact — is proven by the oracle's sharded axes.
func diffCubes(t *testing.T, label string, want, got *cube.Cube) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d cells, want %d", label, got.Len(), want.Len())
	}
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("%s: %d columns, want %d", label, len(got.Cols), len(want.Cols))
	}
	for i := range want.Len() {
		coord := want.Coord(i)
		j, ok := got.Lookup(coord)
		if !ok {
			t.Fatalf("%s: missing coordinate %v", label, coord)
		}
		for c := range want.Cols {
			w, g := want.Cols[c][i], got.Cols[c][j]
			if w == g {
				continue
			}
			if d := math.Abs(w - g); d > 1e-9*math.Max(math.Abs(w), math.Abs(g)) {
				t.Errorf("%s: cell %v col %s: got %v, want %v",
					label, coord, want.Names[c], g, w)
			}
		}
	}
}

var testQueries = []struct {
	name  string
	group mdm.GroupBy
	preds []engine.Predicate
	meas  []int
	ops   []mdm.AggOp
}{
	{
		name:  "sum-by-country",
		group: mdm.GroupBy{{Hier: 3, Level: 2}},
		meas:  []int{0, 1},
		ops:   []mdm.AggOp{mdm.AggSum, mdm.AggSum},
	},
	{
		name:  "all-ops-by-category",
		group: mdm.GroupBy{{Hier: 2, Level: 2}},
		meas:  []int{0, 0, 0, 0, 1},
		ops:   []mdm.AggOp{mdm.AggSum, mdm.AggAvg, mdm.AggMin, mdm.AggMax, mdm.AggCount},
	},
	{
		name:  "avg-two-dims",
		group: mdm.GroupBy{{Hier: 0, Level: 2}, {Hier: 1, Level: 1}},
		meas:  []int{2},
		ops:   []mdm.AggOp{mdm.AggAvg},
	},
	{
		name:  "pred-on-shard-level",
		group: mdm.GroupBy{{Hier: 3, Level: 1}},
		preds: []engine.Predicate{{Level: mdm.LevelRef{Hier: 2, Level: 0}, Members: []int32{1, 4, 9}}},
		meas:  []int{1},
		ops:   []mdm.AggOp{mdm.AggSum},
	},
	{
		name:  "pred-coarser-than-shard-level",
		group: mdm.GroupBy{{Hier: 0, Level: 1}},
		preds: []engine.Predicate{{Level: mdm.LevelRef{Hier: 2, Level: 2}, Members: []int32{0}}},
		meas:  []int{0, 2},
		ops:   []mdm.AggOp{mdm.AggSum, mdm.AggAvg},
	},
	{
		// Every shard is routed away: nothing to combine.
		name:  "pred-no-member",
		group: mdm.GroupBy{{Hier: 3, Level: 2}},
		preds: []engine.Predicate{{Level: mdm.LevelRef{Hier: 2, Level: 0}, Members: []int32{}}},
		meas:  []int{0, 1},
		ops:   []mdm.AggOp{mdm.AggSum, mdm.AggCount},
	},
	{
		name:  "pred-no-member-no-group",
		preds: []engine.Predicate{{Level: mdm.LevelRef{Hier: 2, Level: 0}, Members: []int32{}}},
		meas:  []int{0},
		ops:   []mdm.AggOp{mdm.AggAvg},
	},
	{
		name:  "pred-other-hierarchy",
		group: mdm.GroupBy{{Hier: 2, Level: 1}},
		preds: []engine.Predicate{{Level: mdm.LevelRef{Hier: 3, Level: 2}, Members: []int32{0, 1}}},
		meas:  []int{1},
		ops:   []mdm.AggOp{mdm.AggSum},
	},
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%d", i)
	}
	return out
}

// TestScatterGatherMatchesSolo diffs the coordinator's merged result
// against the engine's own solo scan for every query shape and several
// shard counts, bit-exact.
func TestScatterGatherMatchesSolo(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		rig := newRig(t, 4000, shards, Config{}, nil)
		for _, tq := range testQueries {
			q := engine.Query{Fact: "SALES", Group: tq.group, Preds: tq.preds, Measures: tq.meas}
			nm := names(len(tq.ops))
			want, err := rig.eng.ScanWithOps(context.Background(), q, tq.ops, nm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rig.coord.Scan(context.Background(), q, tq.ops, nm)
			if err != nil {
				t.Fatal(err)
			}
			diffCubes(t, fmt.Sprintf("%d shards/%s", shards, tq.name), want, got)
		}
	}
}

// TestSplitFactPartitions checks the split covers every row exactly
// once and places rows deterministically by member hash.
func TestSplitFactPartitions(t *testing.T) {
	ds := sales.Generate(1000, 3)
	level := mdm.LevelRef{Hier: 2, Level: 0}
	shards, err := SplitFact(ds.Fact, level, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s, sf := range shards {
		total += sf.Rows()
		for r := 0; r < sf.Rows(); r++ {
			if got := shardOf(sf.Keys[2][r], 4); got != s {
				t.Fatalf("row with product %d on shard %d, hash says %d", sf.Keys[2][r], s, got)
			}
		}
	}
	if total != ds.Fact.Rows() {
		t.Fatalf("shards hold %d rows, fact has %d", total, ds.Fact.Rows())
	}
	again, err := SplitFact(ds.Fact, level, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := range shards {
		if shards[s].Rows() != again[s].Rows() {
			t.Fatalf("split not deterministic: shard %d has %d then %d rows", s, shards[s].Rows(), again[s].Rows())
		}
	}
}

// TestRoutingPrunesShards asserts a shard-level equality predicate
// fans out to exactly the owning shard, and that unpredicated scans
// touch every shard.
func TestRoutingPrunesShards(t *testing.T) {
	rig := newRig(t, 2000, 4, Config{}, nil)
	member := int32(5)
	q := engine.Query{
		Fact:     "SALES",
		Group:    mdm.GroupBy{{Hier: 3, Level: 2}},
		Preds:    []engine.Predicate{{Level: rig.level, Members: []int32{member}}},
		Measures: []int{0},
	}
	ops := []mdm.AggOp{mdm.AggSum}
	if _, err := rig.coord.Scan(context.Background(), q, ops, names(1)); err != nil {
		t.Fatal(err)
	}
	owner := shardOf(member, 4)
	st := rig.coord.Stats()
	for _, sh := range st.Tables[0].Shards {
		want := int64(0)
		if sh.Shard == owner {
			want = 1
		}
		if sh.Scans != want {
			t.Errorf("shard %d: %d scans after routed query, want %d", sh.Shard, sh.Scans, want)
		}
	}
	q.Preds = nil
	if _, err := rig.coord.Scan(context.Background(), q, ops, names(1)); err != nil {
		t.Fatal(err)
	}
	st = rig.coord.Stats()
	for _, sh := range st.Tables[0].Shards {
		want := int64(1)
		if sh.Shard == owner {
			want = 2
		}
		if sh.Scans != want {
			t.Errorf("shard %d: %d scans after full fanout, want %d", sh.Shard, sh.Scans, want)
		}
	}
}

// TestWireRoundTrip locks the binary response format: coordinates and
// float64 bit patterns survive encode/decode, and shape mismatches are
// rejected.
func TestWireRoundTrip(t *testing.T) {
	ds := sales.Generate(10, 1)
	g := mdm.GroupBy{{Hier: 2, Level: 1}, {Hier: 3, Level: 0}}
	c := cube.New(ds.Schema, g, "p0", "p1")
	c.MustAddCell(mdm.Coordinate{1, 2}, 3.5, -0)
	c.MustAddCell(mdm.Coordinate{0, 7}, 1e-300, 42)
	gen, got, err := DecodeResponse(ds.Schema, g, []string{"p0", "p1"}, EncodeResponse(99, c))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 99 {
		t.Fatalf("generation %d, want 99", gen)
	}
	diffCubes(t, "wire", c, got)
	if _, _, err := DecodeResponse(ds.Schema, g, []string{"p0"}, EncodeResponse(0, c)); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
	if _, _, err := DecodeResponse(ds.Schema, g, []string{"p0", "p1"}, []byte("junk")); err == nil {
		t.Fatal("garbage not rejected")
	}
}

// TestRouteMatchesRollup holds route to its definition — one Rollup per
// base member — at a shard level in the middle of its hierarchy, so that
// predicates finer than, at and coarser than the shard level, alone and
// intersected, all occur.
func TestRouteMatchesRollup(t *testing.T) {
	ds := sales.Generate(200, 7)
	const hier, shardLevel, n = 0, 1, 5 // dates sharded by month
	tab := &table{local: ds.Fact, level: mdm.LevelRef{Hier: hier, Level: shardLevel}, shards: make([]*shardState, n)}
	h := ds.Schema.Hiers[hier]
	on := func(level int, members ...int32) engine.Predicate {
		return engine.Predicate{Level: mdm.LevelRef{Hier: hier, Level: level}, Members: members}
	}
	elsewhere := engine.Predicate{Level: mdm.LevelRef{Hier: 2, Level: 0}, Members: []int32{1}}
	for i, preds := range [][]engine.Predicate{
		nil,
		{elsewhere},
		{on(0, 3, 100, 400)},
		{on(0, 3, 4, 5)}, // one month
		{on(1, 2, 7)},
		{on(2, 1)},
		{on(1)},
		{on(0, 3, 100, 400), elsewhere, on(2, 0)},
		{on(1, 2, 7, 20), on(0, 70, 650)},
		{on(2, 0), on(2, 1)},
	} {
		// A shard is needed when it owns a month that, for every
		// predicate, holds a date rolling up into the predicate's members.
		var want []int
		for s := 0; s < n; s++ {
			needed := false
			for month := int32(0); int(month) < h.Dict(shardLevel).Len() && !needed; month++ {
				needed = shardOf(month, n) == s
				for _, p := range preds {
					if p.Level.Hier != hier {
						continue
					}
					some := false
					for date := int32(0); int(date) < h.Dict(0).Len(); date++ {
						some = some || h.Rollup(date, 0, shardLevel) == month && slices.Contains(p.Members, h.Rollup(date, 0, p.Level.Level))
					}
					needed = needed && some
				}
			}
			if needed {
				want = append(want, s)
			}
		}
		if got := tab.route(preds); !slices.Equal(got, want) {
			t.Errorf("case %d: routed to shards %v, the roll-up says %v", i, got, want)
		}
	}
}

// TestGenerationReconciliation drives an append directly into a worker
// shard (bypassing the coordinator) and checks the next merge folds the
// shard's new generation into the local fact's version — the mechanism
// that keeps the query cache coherent with remote appends.
func TestGenerationReconciliation(t *testing.T) {
	rig := newRig(t, 500, 2, Config{}, nil)
	q := engine.Query{Fact: "SALES", Group: mdm.GroupBy{{Hier: 3, Level: 2}}, Measures: []int{0}}
	ops := []mdm.AggOp{mdm.AggSum}
	if _, err := rig.coord.Scan(context.Background(), q, ops, names(1)); err != nil {
		t.Fatal(err)
	}
	before := rig.ds.Fact.Version()

	keys := []int32{0, 0, 0, 0}
	vals := []float64{1, 1, 1}
	if _, err := rig.lc.Workers[shardOf(0, 2)].Append("SALES", keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := rig.ds.Fact.Version(); got != before {
		t.Fatalf("local version moved without a merge: %d, want %d", got, before)
	}
	if _, err := rig.coord.Scan(context.Background(), q, ops, names(1)); err != nil {
		t.Fatal(err)
	}
	if got := rig.ds.Fact.Version(); got != before+1 {
		t.Fatalf("version after reconciling merge: %d, want %d", got, before+1)
	}
	// A second merge must not double-count the same append.
	if _, err := rig.coord.Scan(context.Background(), q, ops, names(1)); err != nil {
		t.Fatal(err)
	}
	if got := rig.ds.Fact.Version(); got != before+1 {
		t.Fatalf("version after second merge: %d, want %d", got, before+1)
	}
}

// TestCoordinatorAppend routes an append through the coordinator: the
// owning shard and the local copy both grow, the version advances
// exactly once, and subsequent scans see the row.
func TestCoordinatorAppend(t *testing.T) {
	rig := newRig(t, 500, 3, Config{}, nil)
	q := engine.Query{Fact: "SALES", Group: mdm.GroupBy{{Hier: 3, Level: 2}}, Measures: []int{0}}
	ops := []mdm.AggOp{mdm.AggSum}
	base, err := rig.coord.Scan(context.Background(), q, ops, names(1))
	if err != nil {
		t.Fatal(err)
	}
	before := rig.ds.Fact.Version()
	rowsBefore := rig.ds.Fact.Rows()

	keys := []int32{1, 1, 6, 1}
	vals := []float64{5, 2.5, 1.25}
	if err := rig.coord.Append(context.Background(), "SALES", keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := rig.ds.Fact.Rows(); got != rowsBefore+1 {
		t.Fatalf("local rows %d, want %d", got, rowsBefore+1)
	}
	if got := rig.ds.Fact.Version(); got != before+1 {
		t.Fatalf("version %d after coordinator append, want %d", got, before+1)
	}
	owner := shardOf(6, 3)
	if got := rig.lc.Workers[owner].Stats().Appends; got != 1 {
		t.Fatalf("owning worker saw %d appends, want 1", got)
	}
	// A shard key outside the dictionary has no owner: an error naming the
	// hierarchy, before any shard is chosen.
	shardHier := rig.ds.Fact.Schema.Hiers[2]
	for _, bad := range [][]int32{{1, 1, int32(shardHier.Dict(0).Len()), 1}, {1, 1, -1, 1}, {1, 1}} {
		err := rig.coord.Append(context.Background(), "SALES", bad, vals)
		if err == nil || !strings.Contains(err.Error(), shardHier.Name()) {
			t.Fatalf("append of keys %v: err %v, want one naming hierarchy %s", bad, err, shardHier.Name())
		}
	}
	if got := rig.ds.Fact.Rows(); got != rowsBefore+1 {
		t.Fatalf("local rows %d after refused appends, want %d", got, rowsBefore+1)
	}

	got, err := rig.coord.Scan(context.Background(), q, ops, names(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rig.eng.ScanWithOps(context.Background(), q, ops, names(1))
	if err != nil {
		t.Fatal(err)
	}
	diffCubes(t, "after append", want, got)
	if got.Len() == base.Len() {
		// same cells is fine; the appended row must still be counted
		i, ok := got.Lookup(mdm.Coordinate{rig.ds.Schema.Hiers[3].Rollup(1, 0, 2)})
		if !ok {
			t.Fatal("appended row's country cell missing")
		}
		j, _ := base.Lookup(mdm.Coordinate{rig.ds.Schema.Hiers[3].Rollup(1, 0, 2)})
		if got.Cols[0][i] != base.Cols[0][j]+5 {
			t.Fatalf("appended quantity not visible: %v vs %v", got.Cols[0][i], base.Cols[0][j])
		}
	}
	// Version must not move again on the reconciling scan.
	if got := rig.ds.Fact.Version(); got != before+1 {
		t.Fatalf("version double-counted after scan: %d, want %d", got, before+1)
	}
}

// TestHTTPWorkerRoundTrip serves a worker over HTTP and checks the
// HTTPClient path — scan and append — matches the in-process result.
func TestHTTPWorkerRoundTrip(t *testing.T) {
	rig := newRig(t, 1500, 2, Config{}, nil)
	srvs := make([]*httptest.Server, 2)
	chains := make([][]ShardClient, 2)
	for i, w := range rig.lc.Workers {
		srvs[i] = httptest.NewServer(w.Handler())
		defer srvs[i].Close()
		chains[i] = []ShardClient{&HTTPClient{BaseURL: srvs[i].URL}}
	}
	eng2 := engine.New()
	if err := eng2.Register("SALES", rig.ds.Fact); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng2, Config{})
	if err := coord.AddTable("SALES", rig.level, chains, true); err != nil {
		t.Fatal(err)
	}
	for _, tq := range testQueries {
		q := engine.Query{Fact: "SALES", Group: tq.group, Preds: tq.preds, Measures: tq.meas}
		nm := names(len(tq.ops))
		want, err := rig.eng.ScanWithOps(context.Background(), q, tq.ops, nm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Scan(context.Background(), q, tq.ops, nm)
		if err != nil {
			t.Fatal(err)
		}
		diffCubes(t, "http/"+tq.name, want, got)
	}
	if err := coord.Append(context.Background(), "SALES", []int32{0, 0, 3, 0}, []float64{2, 1, 1}); err != nil {
		t.Fatal(err)
	}
	owner := shardOf(3, 2)
	if got := rig.lc.Workers[owner].Stats().Appends; got != 1 {
		t.Fatalf("HTTP append did not reach owning worker (appends=%d)", got)
	}
}
