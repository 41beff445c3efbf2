package ssb

import (
	"math"
	"testing"
)

// TestGeneratorMatchesGenerate pins the streaming generator to the
// materialized one: same (sf, seed) ⇒ identical rows in order. ssbgen
// -out-dir relies on this to emit segment directories bit-identical to
// an in-memory build.
func TestGeneratorMatchesGenerate(t *testing.T) {
	const sf, seed = 0.002, 99
	ds := Generate(sf, seed)
	g := NewGenerator(sf, seed)
	if g.Rows() != ds.Fact.Rows() {
		t.Fatalf("generator rows %d != dataset rows %d", g.Rows(), ds.Fact.Rows())
	}
	for r := 0; r < g.Rows(); r++ {
		keys, meas, budget := g.Next()
		for h := range keys {
			if keys[h] != ds.Fact.Keys[h][r] {
				t.Fatalf("row %d hier %d: key %d != %d", r, h, keys[h], ds.Fact.Keys[h][r])
			}
		}
		for m := range meas {
			if meas[m] != ds.Fact.Meas[m][r] {
				t.Fatalf("row %d measure %d: %v != %v", r, m, meas[m], ds.Fact.Meas[m][r])
			}
		}
		if budget != ds.Budget.Meas[0][r] {
			t.Fatalf("row %d budget: %v != %v", r, budget, ds.Budget.Meas[0][r])
		}
	}
	// Schemas line up member-for-member at the base level.
	for h, hier := range g.Schema.Hiers {
		if hier.Dict(0).Len() != ds.Schema.Hiers[h].Dict(0).Len() {
			t.Fatalf("hier %d dictionary sizes differ", h)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Next past Rows() did not panic")
		}
	}()
	g.Next()
}

// TestNextBlockMatchesNext: filling blocks draws the stream in Next's
// order, bit for bit, including the short last block of a block size
// that does not divide Rows().
func TestNextBlockMatchesNext(t *testing.T) {
	for _, sf := range []float64{0.01, 0.2} {
		for _, seed := range []int64{1, 2} {
			rows, blocks := NewGenerator(sf, seed), NewGenerator(sf, seed)
			const size = 10_007
			if rows.Rows()%size == 0 {
				t.Fatalf("sf %g: block size %d divides %d rows", sf, size, rows.Rows())
			}
			r := 0
			for {
				fact, budget := blocks.NextBlock(size)
				if fact.Rows == 0 {
					break
				}
				if fact.Rows != min(size, rows.Rows()-r) || budget.Rows != fact.Rows {
					t.Fatalf("sf %g seed %d: block at row %d has %d/%d rows", sf, seed, r, fact.Rows, budget.Rows)
				}
				for i := 0; i < fact.Rows; i, r = i+1, r+1 {
					keys, meas, b := rows.Next()
					for h, k := range keys {
						if fact.Keys[h][i] != k || budget.Keys[h][i] != k {
							t.Fatalf("sf %g seed %d row %d hier %d: block key %d, Next %d", sf, seed, r, h, fact.Keys[h][i], k)
						}
					}
					for m, v := range meas {
						if math.Float64bits(fact.Meas[m][i]) != math.Float64bits(v) {
							t.Fatalf("sf %g seed %d row %d measure %d: block %v, Next %v", sf, seed, r, m, fact.Meas[m][i], v)
						}
					}
					if math.Float64bits(budget.Meas[0][i]) != math.Float64bits(b) {
						t.Fatalf("sf %g seed %d row %d budget: block %v, Next %v", sf, seed, r, budget.Meas[0][i], b)
					}
				}
			}
			if r != rows.Rows() {
				t.Fatalf("sf %g seed %d: blocks held %d rows, want %d", sf, seed, r, rows.Rows())
			}
		}
	}
}
