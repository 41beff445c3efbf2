package core

import (
	"testing"

	"github.com/assess-olap/assess/internal/sales"
)

// The acceptance benchmark of the query-result cache: on the 50k-row
// sales dataset a cached /assess evaluation must be at least an order of
// magnitude faster than a cold one. Compare:
//
//	go test ./internal/core -bench 'BenchmarkAssess(Cold|Cached)' -benchtime 20x
const benchStmt = `with SALES for country = 'Italy' by product, country
	assess quantity against country = 'France' labels quartiles`

func benchSession(b *testing.B, cached bool) *Session {
	b.Helper()
	s := NewSession()
	ds := sales.Generate(50_000, 42)
	if err := s.RegisterCube("SALES", ds.Fact); err != nil {
		b.Fatal(err)
	}
	if err := s.RegisterCube("SALES_TARGET", ds.External); err != nil {
		b.Fatal(err)
	}
	if cached {
		s.EnableCache(0)
	}
	return s
}

// BenchmarkAssessCold evaluates the statement every iteration (no cache).
func BenchmarkAssessCold(b *testing.B) {
	s := benchSession(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(benchStmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssessCached repeats the statement against a warm cache; an
// iteration pays parse + bind + plan + fingerprint + LRU lookup only.
func BenchmarkAssessCached(b *testing.B) {
	s := benchSession(b, true)
	for range 2 { // prime: the second evaluation is stored
		if _, err := s.Exec(benchStmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(benchStmt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st, ok := s.CacheStats(); !ok || st.Misses != 2 {
		b.Fatalf("cache did not serve the hot path: %+v", st)
	}
}
