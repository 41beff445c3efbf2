package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Kernel tests: the edge cases of the key space (budget overflow,
// cardinality growth, degenerate selections) and the morsel scheduler
// under contention. What the kernels compute is checked against a
// row-at-a-time aggregator in reference_test.go.

// twoHierSchema builds K(k→g) × C(c) with every aggregation operator.
func twoHierSchema(kCard, cCard int) *mdm.Schema {
	hk := mdm.NewHierarchy("K", "k", "g")
	for i := 0; i < kCard; i++ {
		hk.MustAddMember(memberName(i), memberName(i%7))
	}
	hc := mdm.NewHierarchy("C", "c")
	for i := 0; i < cCard; i++ {
		hc.MustAddMember(memberName(i))
	}
	return mdm.NewSchema("T", []*mdm.Hierarchy{hk, hc}, []mdm.Measure{
		{Name: "s", Op: mdm.AggSum},
		{Name: "a", Op: mdm.AggAvg},
		{Name: "lo", Op: mdm.AggMin},
		{Name: "hi", Op: mdm.AggMax},
		{Name: "n", Op: mdm.AggCount},
	})
}

// intFact fills a two-hierarchy fact table with integer-valued measures,
// so dense and hash kernels must agree bit-exactly regardless of
// accumulation order.
func intFact(s *mdm.Schema, rows int, seed int64) *storage.FactTable {
	f := storage.NewFactTable(s)
	f.Reserve(rows)
	rng := rand.New(rand.NewSource(seed))
	nk := s.Hiers[0].Dict(0).Len()
	nc := s.Hiers[1].Dict(0).Len()
	for r := 0; r < rows; r++ {
		v := float64(rng.Intn(2001) - 1000)
		f.MustAppend([]int32{int32(rng.Intn(nk)), int32(rng.Intn(nc))}, []float64{v, v, v, v, 0})
	}
	return f
}

// kernelEngines returns the four kernel configurations under test, all
// registered over the same fact: serial hash, serial dense,
// morsel-parallel hash, and morsel-parallel dense.
func kernelEngines(t *testing.T, f *storage.FactTable) map[string]*Engine {
	t.Helper()
	out := make(map[string]*Engine)
	for _, cfg := range []struct {
		name            string
		dense, parallel bool
	}{
		{"hash-serial", false, false},
		{"dense-serial", true, false},
		{"hash-morsel", false, true},
		{"dense-morsel", true, true},
	} {
		e := New()
		if !cfg.dense {
			e.setDenseKeyBudget(0)
		}
		if cfg.parallel {
			e.SetParallelism(4)
			e.SetMorselSize(64)
		}
		if err := e.Register("T", f); err != nil {
			t.Fatal(err)
		}
		out[cfg.name] = e
	}
	return out
}

func TestDenseLayout(t *testing.T) {
	layout := func(cards []int, budget int) *scanQuery {
		sq := &scanQuery{group: make(mdm.GroupBy, len(cards))}
		sq.init(cards, budget)
		return sq
	}
	sq := layout([]int{5, 7, 3}, 200)
	if sq.dense != 105 {
		t.Fatalf("dense = %d, want 105 slots within a budget of 200", sq.dense)
	}
	for gi, want := range []uint64{21, 3, 1} {
		if got := sq.space.Stride(gi); got != want {
			t.Errorf("stride[%d] = %d, want %d", gi, got, want)
		}
	}
	if layout([]int{5, 7, 3}, 105).dense == 0 {
		t.Error("slots == budget must be dense-eligible")
	}
	if layout([]int{5, 7, 3}, 104).dense != 0 {
		t.Error("slots > budget must fall back to hash")
	}
	if layout([]int{5, 7, 3}, 0).dense != 0 {
		t.Error("budget 0 must disable the dense path")
	}
	// Empty group-by set: one slot, the grand total.
	if got := layout(nil, 1).dense; got != 1 {
		t.Errorf("empty group-by layout = %d slots, want 1", got)
	}
	// A level with an empty domain cannot be laid out densely.
	if layout([]int{0}, 100).dense != 0 {
		t.Error("empty level domain must fall back to hash")
	}
	// The budget check must not overflow on huge cardinality products,
	// and a product past 64 bits has no composite key at all.
	huge := layout([]int{1 << 30, 1 << 30, 1 << 30}, 1<<30)
	if huge.dense != 0 || !huge.space.Wide() {
		t.Error("2^90 slots must fall back to the wide-key table without overflowing")
	}
	if layout([]int{1 << 30, 1 << 30}, 1<<30).space.Wide() {
		t.Error("2^60 slots still have a 64-bit composite key")
	}
}

func TestSetDenseKeyBudget(t *testing.T) {
	e := New()
	if got := e.denseKeyBudget(); got != defaultDenseKeyBudget {
		t.Errorf("default budget = %d, want %d", got, defaultDenseKeyBudget)
	}
	e.setDenseKeyBudget(1234)
	if got := e.denseKeyBudget(); got != 1234 {
		t.Errorf("budget = %d, want 1234", got)
	}
	e.setDenseKeyBudget(0)
	if got := e.denseKeyBudget(); got != 0 {
		t.Errorf("budget = %d, want 0 (disabled)", got)
	}
	e.setDenseKeyBudget(-1)
	if got := e.denseKeyBudget(); got != defaultDenseKeyBudget {
		t.Errorf("budget = %d, want restored default", got)
	}
	e.SetMorselSize(77)
	if got := e.effectiveMorselSize(); got != 77 {
		t.Errorf("morsel = %d, want 77", got)
	}
	e.SetMorselSize(0)
	if got := e.effectiveMorselSize(); got != DefaultMorselSize {
		t.Errorf("morsel = %d, want restored default", got)
	}
}

func TestKernelEmptyFactTable(t *testing.T) {
	s := twoHierSchema(10, 3)
	f := storage.NewFactTable(s)
	for name, e := range kernelEngines(t, f) {
		for _, group := range [][]string{{"k"}, {"g", "c"}, {}} {
			q := Query{Fact: "T", Group: mdm.MustGroupBy(s, group...), Measures: []int{0, 1, 2, 3, 4}}
			c, err := e.Get(q)
			if err != nil {
				t.Fatalf("%s group %v: %v", name, group, err)
			}
			if c.Len() != 0 {
				t.Errorf("%s group %v: %d cells from an empty fact table", name, group, c.Len())
			}
		}
	}
}

// TestKernelSingleMorselFallsBackToSerial pins the engage rule: a table
// below the per-worker row floor stays serial (one morsel, no workers),
// even with parallelism configured.
func TestKernelSingleMorselFallsBackToSerial(t *testing.T) {
	shape := New()
	shape.SetParallelism(8)
	if w, m := shape.scanShape(100); w != 1 || m != DefaultMorselSize {
		t.Errorf("scanShape(100) = %d workers, morsel %d; want 1 (serial), the default morsel", w, m)
	}
	if w, _ := shape.scanShape(4 * DefaultMorselSize); w != 4 {
		t.Errorf("scanShape(256Ki) = %d workers, want 4", w)
	}
	shape.SetMorselSize(250)
	if w, m := shape.scanShape(1000); w != 4 || m != 250 {
		t.Errorf("scanShape(1000) = %d workers, morsel %d; want 4, 250 (at least one morsel per worker)", w, m)
	}
	s := twoHierSchema(10, 3)
	f := intFact(s, 100, 3)
	for _, dense := range []bool{true, false} {
		e := New()
		e.SetParallelism(8)
		if !dense {
			e.setDenseKeyBudget(0)
		}
		if err := e.Register("T", f); err != nil {
			t.Fatal(err)
		}
		c, err := e.Get(Query{Fact: "T", Group: mdm.MustGroupBy(s), Measures: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != 1 || c.Cols[0][0] != 100 {
			t.Errorf("dense=%v: grand total = %v, want one cell counting 100 rows", dense, c.Cols)
		}
	}
}

// TestDenseBudgetOverflowMidRegistry grows a hierarchy after the fact
// table is registered and already queried: the cached roll-up maps must
// be rebuilt for the new members, and once the key space outgrows the
// budget the scan must fall back to the hash kernel with identical
// results.
func TestDenseBudgetOverflowMidRegistry(t *testing.T) {
	build := func() (*mdm.Schema, *storage.FactTable) {
		h := mdm.NewHierarchy("K", "k", "g")
		for i := 0; i < 8; i++ {
			h.MustAddMember(memberName(i), memberName(i%4))
		}
		s := mdm.NewSchema("T", []*mdm.Hierarchy{h}, []mdm.Measure{{Name: "s", Op: mdm.AggSum}})
		f := storage.NewFactTable(s)
		for i := 0; i < 64; i++ {
			f.MustAppend([]int32{int32(i % 8)}, []float64{float64(i)})
		}
		return s, f
	}
	s, f := build()
	e := New()
	e.setDenseKeyBudget(16) // 8 base members fit, the grown domain will not
	if err := e.Register("T", f); err != nil {
		t.Fatal(err)
	}
	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0}}
	if _, err := e.Get(q); err != nil {
		t.Fatal(err) // populates the roll-up map caches at cardinality 8
	}
	if sq, err := e.prepare(context.Background(), f, q, []mdm.AggOp{mdm.AggSum}); err != nil || sq.dense != 8 {
		t.Fatalf("pre-growth key space should be dense-eligible: %d slots, err %v", sq.dense, err)
	}
	// Mid-registry growth: 24 new members, then rows referencing them.
	h := s.Hiers[0]
	for i := 8; i < 32; i++ {
		h.MustAddMember(memberName(i), memberName(i%4))
	}
	for i := 0; i < 32; i++ {
		f.MustAppend([]int32{int32(8 + i%24)}, []float64{1000})
	}
	if sq, err := e.prepare(context.Background(), f, q, []mdm.AggOp{mdm.AggSum}); err != nil || sq.dense != 0 {
		t.Fatalf("32 > 16 slots must take the hash fallback: %d slots, err %v", sq.dense, err)
	}
	got, err := e.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a fresh engine over an identically grown fact.
	s2, f2 := build()
	for i := 8; i < 32; i++ {
		s2.Hiers[0].MustAddMember(memberName(i), memberName(i%4))
	}
	for i := 0; i < 32; i++ {
		f2.MustAppend([]int32{int32(8 + i%24)}, []float64{1000})
	}
	ref := New()
	ref.setDenseKeyBudget(0)
	if err := ref.Register("T", f2); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Get(Query{Fact: "T", Group: mdm.MustGroupBy(s2, "k"), Measures: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("post-growth scan has %d cells, want %d", got.Len(), want.Len())
	}
	for i := range want.Len() {
		coord := want.Coord(i)
		gi, ok := got.Lookup(coord)
		if !ok || got.Cols[0][gi] != want.Cols[0][i] {
			t.Errorf("cell %v: got %v, want %v", coord, got.Cols[0][gi], want.Cols[0][i])
		}
	}
	// The grouped level "g" kept cardinality 4: still dense-eligible, and
	// its roll-up map must now cover all 32 base members.
	cg, err := e.Get(Query{Fact: "T", Group: mdm.MustGroupBy(s, "g"), Measures: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	wg, err := ref.Get(Query{Fact: "T", Group: mdm.MustGroupBy(s2, "g"), Measures: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if cg.Len() != wg.Len() {
		t.Fatalf("post-growth by-g scan has %d cells, want %d", cg.Len(), wg.Len())
	}
	for i := range wg.Len() {
		coord := wg.Coord(i)
		gi, ok := cg.Lookup(coord)
		if !ok || cg.Cols[0][gi] != wg.Cols[0][i] {
			t.Errorf("by-g cell %v: got %v, want %v", coord, cg.Cols[0][gi], wg.Cols[0][i])
		}
	}
}

// TestSelectionVectorExtremes pins the degenerate selection vectors: a
// predicate accepting no member yields the empty cube, and a predicate
// listing every member equals the unpredicated scan on every kernel.
func TestSelectionVectorExtremes(t *testing.T) {
	s := twoHierSchema(30, 4)
	f := intFact(s, 3000, 23)
	engines := kernelEngines(t, f)
	gRef, _ := s.FindLevel("g")
	cRef, _ := s.FindLevel("c")
	all := make([]int32, s.Hiers[0].Dict(1).Len())
	for i := range all {
		all[i] = int32(i)
	}
	allC := make([]int32, s.Hiers[1].Dict(0).Len())
	for i := range allC {
		allC[i] = int32(i)
	}
	for name, e := range engines {
		// All-false: an empty member list rejects every row.
		q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"),
			Preds: []Predicate{{Level: gRef, Members: nil}}, Measures: []int{0}}
		c, err := e.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Len() != 0 {
			t.Errorf("%s: all-false predicate produced %d cells", name, c.Len())
		}
		// All-true: listing every member of both hierarchies changes nothing.
		free, err := e.Get(Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 4}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q = Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"),
			Preds:    []Predicate{{Level: gRef, Members: all}, {Level: cRef, Members: allC}},
			Measures: []int{0, 4}}
		full, err := e.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if full.Len() != free.Len() {
			t.Fatalf("%s: all-true predicate has %d cells, unpredicated %d", name, full.Len(), free.Len())
		}
		for i := range free.Len() {
			coord := free.Coord(i)
			fi, ok := full.Lookup(coord)
			if !ok {
				t.Fatalf("%s: coordinate missing under all-true predicate", name)
			}
			for j := range free.Cols {
				if free.Cols[j][i] != full.Cols[j][fi] {
					t.Errorf("%s %v measure %s: %v vs %v", name, coord, free.Names[j], full.Cols[j][fi], free.Cols[j][i])
				}
			}
		}
	}
}

// TestMorselWorkStealingStress drives the shared morsel cursor with all
// cores and single-digit morsels, repeatedly, so `go test -race` (the CI
// morsel step) exercises concurrent claiming, private-state isolation,
// and the merge tree.
func TestMorselWorkStealingStress(t *testing.T) {
	s := twoHierSchema(50, 6)
	f := intFact(s, 4000, 31)
	ref := New()
	ref.setDenseKeyBudget(0)
	if err := ref.Register("T", f); err != nil {
		t.Fatal(err)
	}
	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k", "c"), Measures: []int{0, 1, 2, 3, 4}}
	want, err := ref.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	// workers 0 = all cores (which may be 1 on a small runner), so an
	// explicit 16-worker config guarantees contended claiming everywhere.
	for _, workers := range []int{0, 16} {
		for _, dense := range []bool{true, false} {
			e := New()
			e.SetParallelism(workers)
			e.SetMorselSize(7)
			if !dense {
				e.setDenseKeyBudget(0)
			}
			if err := e.Register("T", f); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				got, err := e.Get(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Len() != want.Len() {
					t.Fatalf("workers=%d dense=%v round %d: %d cells, want %d", workers, dense, round, got.Len(), want.Len())
				}
				for i := range want.Len() {
					coord := want.Coord(i)
					gi, ok := got.Lookup(coord)
					if !ok {
						t.Fatalf("workers=%d dense=%v round %d: coordinate missing", workers, dense, round)
					}
					for j := range want.Cols {
						if want.Cols[j][i] != got.Cols[j][gi] {
							t.Fatalf("workers=%d dense=%v round %d: measure %s diverged", workers, dense, round, want.Names[j])
						}
					}
				}
			}
		}
	}
}

// TestSlotTableGrowthKeepsSlots inserts enough keys through the kernel's
// table to rehash its bucket array several times (mdm's TestSlots checks
// the doublings): every key must keep the slot it was first given, slots
// must be handed out in first-seen order, and looking all keys up again
// must assign nothing new.
func TestSlotTableGrowthKeepsSlots(t *testing.T) {
	sq := mergeQuery()
	tab := sq.newTable()
	const n = 20000
	key := func(i int) uint64 { return uint64(i) * 0x10001 << 20 } // collides in the low bits
	first := make([]uint64, n)
	for i := range first {
		dk := []uint64{key(i), key(i / 2)} // one new key, one seen before
		tab.slots.Assign(dk)
		if dk[0] != uint64(i) || dk[1] != uint64(i/2) {
			t.Fatalf("key %d got slots %v, want [%d %d]", i, dk, i, i/2)
		}
		first[i] = dk[0]
	}
	again := make([]uint64, n)
	for i := range again {
		again[i] = key(i)
	}
	tab.slots.Assign(again)
	for i := range again {
		if again[i] != first[i] {
			t.Fatalf("key %d moved from slot %d to %d across rehashes", i, first[i], again[i])
		}
	}
	if tab.slots.Len() != n {
		t.Fatalf("table holds %d slots after a lookup-only pass, want %d", tab.slots.Len(), n)
	}
}

// TestSlotTableGrownSlotsHoldIdentities: columns grown for new slots must
// start from each operator's identity, or the first MIN/MAX into a slot
// would be compared against a stale zero.
func TestSlotTableGrownSlotsHoldIdentities(t *testing.T) {
	sq := &scanQuery{measures: []int{0, 1, 2, 3}, ops: []mdm.AggOp{mdm.AggMin, mdm.AggMax, mdm.AggSum, mdm.AggCount}}
	sq.init(nil, 0)
	tab := sq.newTable()
	for _, slots := range []int{3, 700, 5000} {
		tab.reserve(sq, slots)
		if tab.size() < slots || len(tab.cnt) != tab.size() || tab.seen != nil {
			t.Fatalf("reserve(%d): %d slots, %d counts", slots, tab.size(), len(tab.cnt))
		}
		for s := 0; s < tab.size(); s++ {
			if !math.IsInf(tab.vals[0][s], 1) || !math.IsInf(tab.vals[1][s], -1) || tab.vals[2][s] != 0 || tab.cnt[s] != 0 {
				t.Fatalf("slot %d of %d starts at min %v max %v sum %v cnt %d", s, tab.size(),
					tab.vals[0][s], tab.vals[1][s], tab.vals[2][s], tab.cnt[s])
			}
		}
	}
	if tab.vals[3] != nil {
		t.Error("a count measure keeps no value column")
	}
}

// mergeQuery is a one-level SUM+MAX query on the slot table, the shape of
// the merge tests and BenchmarkMergeTree.
func mergeQuery() *scanQuery {
	sq := &scanQuery{
		group:    mdm.GroupBy{{Hier: 0, Level: 0}},
		measures: []int{0, 1},
		ops:      []mdm.AggOp{mdm.AggSum, mdm.AggMax},
	}
	sq.init([]int{1 << 20}, 0)
	return sq
}

// mergeParts builds one partial per worker: worker w holds the cells keys
// (c + w·cells/4) mod 2·cells, each with value c, so neighbouring workers
// overlap in three quarters of their keys and all 2·cells keys occur. The
// rows go through the kernel's own morsel path.
func mergeParts(sq *scanQuery, workers, cells int) []*aggTable {
	sq.gmaps = [][]int32{make([]int32, 2*cells)}
	for i := range sq.gmaps[0] {
		sq.gmaps[0][i] = int32(i)
	}
	parts := make([]*aggTable, workers)
	sc := new(morselScratch)
	for w := range parts {
		keys := make([]int32, cells)
		vals := make([]float64, cells)
		for c := range keys {
			keys[c] = int32((c + w*cells/4) % (2 * cells))
			vals[c] = float64(c)
		}
		parts[w] = sq.newTable()
		cols := storage.BlockCols{Keys: [][]int32{keys}, Meas: [][]float64{vals, vals}, Rows: cells}
		sq.morsel(parts[w], sc, cols, 0, cells)
	}
	return parts
}

// TestMergeTreeSixteenWorkers folds 16 overlapping slot-table partials
// (run under -race in CI: the tree merges pairs concurrently) and checks
// every cell against the closed form.
func TestMergeTreeSixteenWorkers(t *testing.T) {
	const workers, cells = 16, 512
	sq := mergeQuery()
	out := sq.mergeTree(mergeParts(sq, workers, cells))
	if out.slots.Len() != 2*cells {
		t.Fatalf("merged %d cells, want %d", out.slots.Len(), 2*cells)
	}
	c, err := sq.finalize(twoHierSchema(1, 1), []string{"s", "hi"}, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Len() {
		coord := c.Coord(i)
		if int(coord[0]) != i {
			t.Fatalf("cell %d has key %d: not in ascending key order", i, coord[0])
		}
		// Worker w holds key i with value (i - w·cells/4) mod 2·cells, when
		// that is below cells.
		sum, hi := 0.0, math.Inf(-1)
		for w := 0; w < workers; w++ {
			if v := (i - w*cells/4 + workers*2*cells) % (2 * cells); v < cells {
				sum += float64(v)
				hi = math.Max(hi, float64(v))
			}
		}
		if c.Cols[0][i] != sum || c.Cols[1][i] != hi {
			t.Errorf("key %d: sum %v max %v, want %v %v", i, c.Cols[0][i], c.Cols[1][i], sum, hi)
		}
	}
}
