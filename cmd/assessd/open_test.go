package main

import (
	"path/filepath"
	"testing"

	assess "github.com/assess-olap/assess"
)

// TestOpenServesSavedSession serves a directory written the way
// assess -save writes it, out-of-core and resident: both cubes are
// registered, their hierarchies joined for an External statement, and
// the declared labeler is back.
func TestOpenServesSavedSession(t *testing.T) {
	gen, _, err := assess.NewSalesSession(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Declare(`declare labels signs as {[-inf, 0): down, [0, inf]: up}`); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "sales")
	if err := assess.SaveSession(dir, gen); err != nil {
		t.Fatal(err)
	}
	const stmt = `with SALES by year assess storeSales against SALES_TARGET.expectedSales
		using difference(storeSales, benchmark.expectedSales) labels signs`
	want, err := gen.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, resident := range []bool{false, true} {
		s, closeStores, err := open("sales", 0, 0, 0, dir, resident)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Exec(stmt)
		if err != nil {
			t.Fatalf("resident %v: %v", resident, err)
		}
		if g, w := got.Cube.String(), want.Cube.String(); g != w {
			t.Errorf("resident %v: served\n%s\nwant\n%s", resident, g, w)
		}
		if err := closeStores(); err != nil {
			t.Error(err)
		}
	}
}

// TestCacheMBSwitchesTheCache: -cache-mb is the one flag of the result
// cache and of view admission — 0 serves without either, a positive
// budget attaches a cache of that many MiB and admits views under as many
// again, and a negative one is refused.
func TestCacheMBSwitchesTheCache(t *testing.T) {
	for _, c := range []struct {
		mb        int
		wantCache bool
		wantErr   bool
	}{{0, false, false}, {1, true, false}, {64, true, false}, {-1, false, true}} {
		s := newSalesSession(t)
		err := enableCache(s, c.mb)
		if (err != nil) != c.wantErr {
			t.Errorf("-cache-mb %d: err %v", c.mb, err)
		}
		st, ok := s.CacheStats()
		if ok != c.wantCache {
			t.Errorf("-cache-mb %d: cache attached %v, want %v", c.mb, ok, c.wantCache)
		}
		if ok && st.BudgetBytes != int64(c.mb)<<20 {
			t.Errorf("-cache-mb %d: budget %d bytes", c.mb, st.BudgetBytes)
		}
		vs := s.ViewStats()
		if vs.AutoEnabled != c.wantCache || (ok && vs.BudgetBytes != int64(c.mb)<<20) {
			t.Errorf("-cache-mb %d: view admission on %v with %d bytes", c.mb, vs.AutoEnabled, vs.BudgetBytes)
		}
	}
}
