package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/storage"
)

// Shared-scan tests: per-request failures, and zone-map pruning on the
// segment backend, where a batch prunes per query instead of per source.
// That a batch answers each query cell for cell like a scan of its own
// is checked in reference_test.go.

// sharedQueries builds a mix of distinct queries over twoHierSchema:
// different group-by sets, measure subsets, and predicates (the
// predicated ones exercise per-query pruning on segment backends).
func sharedQueryMix(t *testing.T, s *mdm.Schema) []Query {
	t.Helper()
	gRef, gID := member(t, s, "g", memberName(3))
	kRef, kID := member(t, s, "k", memberName(5))
	return []Query{
		{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1, 2, 3, 4}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "g", "c"), Measures: []int{0, 4}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Measures: []int{2, 3}},
		{Fact: "T", Group: mdm.MustGroupBy(s), Measures: []int{0, 1}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "k", "c"), Measures: []int{0}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Preds: []Predicate{{Level: gRef, Members: []int32{gID}}}, Measures: []int{0, 4}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "g"), Preds: []Predicate{{Level: kRef, Members: []int32{kID}}}, Measures: []int{1, 2}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "g"), Measures: []int{3}},
	}
}

// segmentEngine re-registers the fact from a colstore directory with
// tiny segments, so shared scans see many blocks and zone maps have
// something to prune.
func segmentEngine(t *testing.T, src *Engine, cfg func(*Engine)) *Engine {
	t.Helper()
	f, _ := src.Fact("T")
	dir := t.TempDir()
	opts := colstore.Options{SegmentRows: 256, AutoCompactRows: -1}
	if err := persist.SaveCubeDir(dir, f, opts); err != nil {
		t.Fatal(err)
	}
	seg, st, err := persist.OpenCubeDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := New()
	cfg(e)
	if err := e.Register("T", seg); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSharedScanDetachAndErrors(t *testing.T) {
	s := twoHierSchema(60, 11)
	f := intFact(s, 5000, 7)
	e := New()
	if err := e.Register("T", f); err != nil {
		t.Fatal(err)
	}
	qs := sharedQueryMix(t, s)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []ScanReq{
		{Ctx: context.Background(), Query: qs[0]},
		{Ctx: cancelled, Query: qs[1]},
		{Ctx: context.Background(), Query: Query{Fact: "OTHER"}},
		{Ctx: context.Background(), Query: Query{Fact: "T", Group: qs[0].Group, Measures: []int{99}}},
		{Ctx: context.Background(), Query: qs[2]},
	}
	results := e.SharedScan("T", reqs)
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("healthy requests failed: %v, %v", results[0].Err, results[4].Err)
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Fatalf("cancelled request: got %v, want context.Canceled", results[1].Err)
	}
	if results[2].Err == nil || results[3].Err == nil {
		t.Fatalf("invalid requests must fail individually: %v, %v", results[2].Err, results[3].Err)
	}
	for _, i := range []int{0, 4} {
		want, err := e.aggregate(context.Background(), qs[map[int]int{0: 0, 4: 2}[i]])
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Cube.Len() != want.Len() {
			t.Fatalf("request %d: %d cells, want %d", i, results[i].Cube.Len(), want.Len())
		}
	}
}

// TestSharedScanPrunes asserts a shared scan skips decoding blocks no
// attached query needs: two queries predicated on disjoint narrow ranges
// of a clustered key must leave some blocks undecoded.
func TestSharedScanPrunes(t *testing.T) {
	s := twoHierSchema(64, 4)
	f := clusteredFact(s, 4096)
	resident := New()
	if err := resident.Register("T", f); err != nil {
		t.Fatal(err)
	}
	e := segmentEngine(t, resident, func(*Engine) {})
	kRef, _ := s.FindLevel("k")
	mk := func(id int32) Query {
		return Query{
			Fact:     "T",
			Group:    mdm.MustGroupBy(s, "c"),
			Preds:    []Predicate{{Level: kRef, Members: []int32{id}}},
			Measures: []int{0},
		}
	}
	before := mSharedBlocksSkipped.Value()
	results := e.SharedScan("T", []ScanReq{
		{Ctx: context.Background(), Query: mk(2)},
		{Ctx: context.Background(), Query: mk(3)},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		want, err := e.aggregate(context.Background(), mk(int32(2+i)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cube.Len() != want.Len() {
			t.Fatalf("query %d: %d cells, want %d", i, r.Cube.Len(), want.Len())
		}
		for j := range want.Cols {
			for ci := range want.Coords {
				if r.Cube.Cols[j][ci] != want.Cols[j][ci] {
					t.Fatalf("query %d: value mismatch under pruning", i)
				}
			}
		}
	}
	if skipped := mSharedBlocksSkipped.Value() - before; skipped == 0 {
		t.Fatal("expected the shared scan to skip blocks pruned by every query")
	}
}

// clusteredFact appends rows ordered by the base key, so segment zone
// maps cover narrow key ranges and per-query pruning has teeth.
func clusteredFact(s *mdm.Schema, rows int) *storage.FactTable {
	f := storage.NewFactTable(s)
	nk := s.Hiers[0].Dict(0).Len()
	nc := s.Hiers[1].Dict(0).Len()
	per := rows / nk
	for k := 0; k < nk; k++ {
		for i := 0; i < per; i++ {
			v := float64(k*per + i)
			f.MustAppend([]int32{int32(k), int32(i % nc)}, []float64{v, v, v, v, 0})
		}
	}
	return f
}
