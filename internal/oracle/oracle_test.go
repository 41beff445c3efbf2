package oracle

import (
	"context"
	"fmt"
	goparser "go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
	"github.com/assess-olap/assess/internal/testutil"
)

// defaultSeeds is the fixed table exercised by a plain `go test`; CI
// widens it with ORACLE_SEEDS. Discrepancies found in sweeps get pinned
// by name in TestRegressionSeeds, not appended here.
var defaultSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

// seedsUnderTest resolves the seed set from the environment:
// ORACLE_SEED=n reruns one seed (the repro line printed by a failure),
// ORACLE_SEEDS=n sweeps seeds 1..n, otherwise the fixed default table.
func seedsUnderTest(t *testing.T) []int64 {
	t.Helper()
	if v := os.Getenv("ORACLE_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("invalid ORACLE_SEED %q: %v", v, err)
		}
		return []int64{seed}
	}
	if v := os.Getenv("ORACLE_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("invalid ORACLE_SEEDS %q", v)
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return seeds
	}
	return defaultSeeds
}

// TestDifferential is the oracle entry point: for every seed, generate a
// cube and statement batch and cross-check all execution axes against
// the serial NP reference.
func TestDifferential(t *testing.T) {
	for _, seed := range seedsUnderTest(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rep := Run(seed)
			if rep.Comparisons == 0 {
				t.Fatalf("seed %d: no comparisons ran", seed)
			}
			for _, d := range append(rep.Discrepancies, refereeDiscrepancies(rep)...) {
				t.Error(d.String())
			}
		})
	}
}

// regressionSeeds pins seeds that exposed real bugs during development,
// so the exact generated workload that caught each bug stays in the
// suite forever. The map key documents the bug.
var regressionSeeds = map[string]int64{
	// Distribution labelers split equal comparison values by row order,
	// and a partitioned scan merges its per-worker tables in a different
	// row order than a serial scan: par/NP flipped a quartile label
	// ("top-3" vs "top-4") on tied cells. Fixed by canonicalizing the
	// cube order in exec before OpLabel.
	"label-tie-order-parallel-scan": 1,
	// rank() breaks ties by row order, and the POP pivot-from-view path
	// emits rows in view order rather than scan order: views/POP ranked
	// tied cells 14 vs NP's 12. Fixed by canonicalizing the cube order in
	// exec before holistic OpTransforms.
	"rank-tie-order-view-pivot": 39,
	// assess* past benchmarks: the NP plan pivoted the benchmark cube on
	// the latest past slice, dropping coordinates whose latest slice was
	// empty — JOP/POP still predicted from the remaining series points
	// (benchmark 66 vs NP's NaN). Fixed by anchoring the NP client pivot
	// on the target member with all past slices as neighbors.
	"past-star-partial-series-np": 3,
}

// TestRegressionSeeds reruns the pinned seeds, each held to the referee
// as well as cross-checked along every axis.
func TestRegressionSeeds(t *testing.T) {
	for name, seed := range regressionSeeds {
		name, seed := name, seed
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := Run(seed)
			for _, d := range append(rep.Discrepancies, refereeDiscrepancies(rep)...) {
				t.Error(d.String())
			}
		})
	}
}

// refereeDiscrepancies holds the reference rows of a run to the referee:
// every statement the reference evaluated is evaluated again from the
// definitions, over the case's resident cubes.
func refereeDiscrepancies(rep *Report) []Discrepancy {
	c := Generate(rep.Seed)
	ref := newReferee(map[string]*storage.FactTable{TargetCube: c.Fact, ExtCube: c.ExtFact})
	var out []Discrepancy
	for _, stmt := range c.Statements {
		got, ok := rep.Wants[stmt]
		if !ok {
			continue // the reference failed; Run reported it
		}
		rows, err := ref.assess(stmt)
		detail := ""
		if err != nil {
			detail = err.Error()
		} else {
			detail = diffRows(execRows(rows), got)
		}
		if detail != "" {
			out = append(out, Discrepancy{Seed: rep.Seed, Stmt: stmt, Axis: "referee", Detail: "base/NP against the referee: " + detail})
		}
	}
	return out
}

// execRows puts referee rows in the program's row type, for diffRows.
func execRows(rows []refRow) []exec.Row {
	out := make([]exec.Row, len(rows))
	for i, r := range rows {
		out[i] = exec.Row{Coordinate: r.Coord, Measure: r.Measure, Benchmark: r.Benchmark, Comparison: r.Comparison, Label: r.Label}
	}
	return out
}

// TestRefereeFigureOne holds the referee to the paper rather than to the
// program: the sibling statement of the paper's running example over the
// sales of Figure 1 must give the hand values of Figures 1–2 and
// Examples 4.3 and 4.5 (the values TestSiblingFigureOne asserts of the
// program): differences −50, −20 and +10 from France, percOfTotal over
// Italy's 220, labels bad, ok, ok.
func TestRefereeFigureOne(t *testing.T) {
	const stmt = `with SALES for type = 'Fresh Fruit', country = 'Italy' by product, country ` +
		`assess quantity against country = 'France' using percOfTotal(difference(quantity, benchmark.quantity)) ` +
		`labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}`
	rows, err := newReferee(map[string]*storage.FactTable{"SALES": sales.FigureOne().Fact}).assess(stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := []refRow{ // coordinate order: product names ascending
		{[]string{"Apple", "Italy"}, 100, 150, -50.0 / 220, "bad"},
		{[]string{"Lemon", "Italy"}, 30, 20, 10.0 / 220, "ok"},
		{[]string{"Pear", "Italy"}, 90, 110, -20.0 / 220, "ok"},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d cells, want %d: %+v", len(rows), len(want), rows)
	}
	for i, w := range want {
		g := rows[i]
		if !slices.Equal(g.Coord, w.Coord) || g.Measure != w.Measure || g.Benchmark != w.Benchmark ||
			!testutil.FloatNear(g.Comparison, w.Comparison, 1e-12) || g.Label != w.Label {
			t.Errorf("cell %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestRefereeImports keeps the referee independent of the program it
// judges: referee_test.go may not import a package that binds, plans,
// executes, scans, joins, caches, shards or stores.
func TestRefereeImports(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "referee_test.go", nil, goparser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	forbidden := []string{"semantic", "plan", "exec", "engine", "cube", "core", "qcache", "dist", "colstore", "persist"}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range forbidden {
			if path == "github.com/assess-olap/assess/internal/"+pkg {
				t.Errorf("referee_test.go imports %s", path)
			}
		}
	}
}

// TestGenerateDeterministic locks the generator to its seed: the same
// seed must reproduce the identical statement batch, or the repro lines
// printed by failures would be meaningless.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42), Generate(42)
	if len(a.Statements) != len(b.Statements) {
		t.Fatalf("statement counts differ: %d vs %d", len(a.Statements), len(b.Statements))
	}
	for i := range a.Statements {
		if a.Statements[i] != b.Statements[i] {
			t.Errorf("statement %d differs:\n  %s\n  %s", i, a.Statements[i], b.Statements[i])
		}
	}
	if a.Fact.Rows() != b.Fact.Rows() {
		t.Errorf("fact rows differ: %d vs %d", a.Fact.Rows(), b.Fact.Rows())
	}
}

// TestGeneratorShapes checks the generator's own contract over a seed
// range: every case carries at least one statement per benchmark kind,
// and every statement parses and binds against the generated catalog.
func TestGeneratorShapes(t *testing.T) {
	wantKinds := []parser.BenchmarkKind{
		parser.BenchConstant, parser.BenchExternal, parser.BenchSibling,
		parser.BenchPast, parser.BenchAncestor,
	}
	for seed := int64(1); seed <= 20; seed++ {
		c := Generate(seed)
		if len(c.Statements) < len(stmtKinds) {
			t.Fatalf("seed %d: only %d statements", seed, len(c.Statements))
		}
		s, err := buildSession(c, axis{}, c.Fact, c.ExtFact, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		kinds := make(map[parser.BenchmarkKind]int)
		absolute := 0
		for _, stmt := range c.Statements {
			st, err := parser.Parse(stmt)
			if err != nil {
				t.Fatalf("seed %d: generated statement does not parse: %v\n  %s", seed, err, stmt)
			}
			if st.Against == nil {
				absolute++
			}
			k, err := s.BenchmarkKind(stmt)
			if err != nil {
				t.Fatalf("seed %d: generated statement does not bind: %v\n  %s", seed, err, stmt)
			}
			kinds[k]++
		}
		for _, k := range wantKinds {
			if kinds[k] == 0 {
				t.Errorf("seed %d: no %v statement generated", seed, k)
			}
		}
		if absolute == 0 {
			t.Errorf("seed %d: no absolute (benchmark-free) statement generated", seed)
		}
	}
}

// TestLatticeViewsGenerated guards the lattice axes against vacuity:
// across the seed range every case must carry at least one lattice
// view, and materializing all of them on both cubes must succeed (the
// harness's lattice session construction depends on it).
func TestLatticeViewsGenerated(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := Generate(seed)
		if len(c.LatticeViews) == 0 {
			t.Fatalf("seed %d: no lattice views generated", seed)
		}
		if _, err := buildSession(c, axis{views: "lattice"}, c.Fact, c.ExtFact, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFeasibleStrategiesCovered asserts the axis matrix actually spans
// multiple strategies: across the default seeds, JOP and POP plans must
// both appear, or the differential property degenerates to NP-only.
func TestFeasibleStrategiesCovered(t *testing.T) {
	counts := make(map[string]int)
	for _, seed := range defaultSeeds {
		c := Generate(seed)
		s, err := buildSession(c, axis{}, c.Fact, c.ExtFact, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range c.Statements {
			k, err := s.BenchmarkKind(stmt)
			if err != nil {
				continue
			}
			for _, strat := range core.FeasibleStrategies(k) {
				counts[strat.String()]++
			}
		}
	}
	for _, want := range []string{"NP", "JOP", "POP"} {
		if counts[want] == 0 {
			t.Errorf("no statement admits a %s plan across the default seeds (%v)", want, counts)
		}
	}
}

// copyFact rebuilds a resident fact table row by row so two sessions
// can append to independent storage while sharing the schema.
func copyFact(f *storage.FactTable) *storage.FactTable {
	cp := storage.NewFactTable(f.Schema)
	cp.Reserve(f.Rows())
	replayRows(f, 0, f.Rows(), cp)
	return cp
}

// replayRows appends rows [lo, hi) of the resident table src to every dst.
func replayRows(src *storage.FactTable, lo, hi int, dsts ...*storage.FactTable) {
	keys := make([]int32, len(src.Keys))
	vals := make([]float64, len(src.Meas))
	for r := lo; r < hi; r++ {
		for h := range keys {
			keys[h] = src.Keys[h][r]
		}
		for m := range vals {
			vals[m] = src.Meas[m][r]
		}
		for _, dst := range dsts {
			dst.MustAppend(keys, vals)
		}
	}
}

// TestShardedAppendReconciliation sweeps the statement batch across an
// unsharded reference and a multi-shard scatter-gather cluster, then
// appends rows through the coordinator mid-sweep and sweeps again.
// Results must stay bit-exact, and the sharded session's generation
// must advance with the appends: the coordinator routes each row to
// its hash shard, mirrors it into the local copy, and absorbs the
// reported shard generation without double-counting — the machinery
// qcache/view coherence rides on (the sharded session runs with the
// query cache enabled so a stale post-append hit would diverge).
// ORACLE_SEEDS widens the sweep in CI like TestDifferential.
func TestShardedAppendReconciliation(t *testing.T) {
	for _, seed := range seedsUnderTest(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(seed)
			res := core.NewSession()
			if err := res.RegisterCube(TargetCube, c.Fact); err != nil {
				t.Fatal(err)
			}
			if err := res.RegisterCube(ExtCube, c.ExtFact); err != nil {
				t.Fatal(err)
			}

			// The sharded session needs its own local copies: coordinator
			// appends write shard + local, and the reference appends must
			// not land in the same storage twice.
			shFact, shExt := copyFact(c.Fact), copyFact(c.ExtFact)
			sh := core.NewSession()
			if err := sh.RegisterCube(TargetCube, shFact); err != nil {
				t.Fatal(err)
			}
			if err := sh.RegisterCube(ExtCube, shExt); err != nil {
				t.Fatal(err)
			}
			shards := []int{2, 3, 5}[seed%3]
			if err := shardSession(sh, shFact, shExt, shards, false); err != nil {
				t.Fatal(err)
			}
			sh.EnableCache(0)
			// Without admission: a view is built and kept fresh from the
			// coordinator's local copy, so it would answer the sweeps
			// instead of the shards whose reconciliation they check.
			sh.Engine.SetAutoViews(0)
			coord := sh.Distributed()

			sweep := func(stage string) {
				t.Helper()
				for _, stmt := range c.Statements {
					want, _, _, err := execTracked(res, stmt, plan.NP)
					if err != nil {
						t.Fatalf("%s: reference: %v\n  stmt: %s", stage, err, stmt)
					}
					got, _, _, err := execTracked(sh, stmt, plan.NP)
					if err != nil {
						t.Fatalf("%s: sharded: %v\n  stmt: %s", stage, err, stmt)
					}
					w, err := canonRows(want)
					if err != nil {
						t.Fatal(err)
					}
					g, err := canonRows(got)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffRows(w, g); d != "" {
						t.Errorf("%s: sharded diverges from reference: %s\n  stmt: %s", stage, d, stmt)
					}
				}
			}
			sweep("cold")

			// Mid-sweep appends: replay the first rows of the fact into the
			// reference directly and into the cluster through the
			// coordinator, which hashes each row to its shard.
			const extra = 37
			genBefore := sh.Generation()
			keys := make([]int32, len(c.Schema.Hiers))
			vals := make([]float64, len(c.Schema.Measures))
			for r := 0; r < extra; r++ {
				for h := range keys {
					keys[h] = c.Fact.Keys[h][r]
				}
				for m := range vals {
					vals[m] = c.Fact.Meas[m][r]
				}
				if err := c.Fact.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
				if err := coord.Append(context.Background(), TargetCube, keys, vals); err != nil {
					t.Fatal(err)
				}
			}
			if got := sh.Generation(); got != genBefore+extra {
				t.Fatalf("generation after %d coordinator appends: %d, want %d", extra, got, genBefore+extra)
			}
			if shFact.Rows() != c.Fact.Rows() {
				t.Fatalf("row counts diverge: sharded local %d, reference %d", shFact.Rows(), c.Fact.Rows())
			}
			sweep("after-append")
		})
	}
}

// TestSegmentWALCompaction sweeps the statement batch across the
// resident and segment backends three times: cold from segments, after
// identical WAL appends to both backends mid-sweep, and after an
// explicit compaction folds the WAL tail into segments. Results must
// stay bit-exact throughout, the segment session's generation must
// advance with the appends (qcache/view coherence), and compaction must
// actually run.
func TestSegmentWALCompaction(t *testing.T) {
	for _, seed := range []int64{3, 7, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := Generate(seed)
			res := core.NewSession()
			if err := res.RegisterCube(TargetCube, c.Fact); err != nil {
				t.Fatal(err)
			}
			if err := res.RegisterCube(ExtCube, c.ExtFact); err != nil {
				t.Fatal(err)
			}

			factDir := filepath.Join(t.TempDir(), "fact")
			if err := persist.SaveCubeDir(factDir, c.Fact, segmentOpts); err != nil {
				t.Fatal(err)
			}
			segFact, factSt, err := persist.OpenCubeDir(factDir, segmentOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer factSt.Close()
			segExt, extCleanup, err := segmentCopy(c.ExtFact)
			if err != nil {
				t.Fatal(err)
			}
			defer extCleanup()
			persist.ReconcileSchemas(segFact.Schema, segExt.Schema)

			seg := core.NewSession()
			if err := seg.RegisterCube(TargetCube, segFact); err != nil {
				t.Fatal(err)
			}
			if err := seg.RegisterCube(ExtCube, segExt); err != nil {
				t.Fatal(err)
			}
			// Cache on: a stale hit after an append would diverge from the
			// resident reference, so the sweeps also prove generation-based
			// invalidation works for WAL'd appends. Admission off, so every
			// sweep scans the segments and WAL tail rather than a view.
			seg.EnableCache(0)
			seg.Engine.SetAutoViews(0)

			sweep := func(stage string) {
				t.Helper()
				for _, stmt := range c.Statements {
					want, _, _, err := execTracked(res, stmt, plan.NP)
					if err != nil {
						t.Fatalf("%s: resident: %v\n  stmt: %s", stage, err, stmt)
					}
					got, _, _, err := execTracked(seg, stmt, plan.NP)
					if err != nil {
						t.Fatalf("%s: segment: %v\n  stmt: %s", stage, err, stmt)
					}
					w, err := canonRows(want)
					if err != nil {
						t.Fatal(err)
					}
					g, err := canonRows(got)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffRows(w, g); d != "" {
						t.Errorf("%s: backends diverge: %s\n  stmt: %s", stage, d, stmt)
					}
				}
			}
			sweep("cold")

			// Mid-sweep WAL appends: replay the first rows of the fact into
			// both backends identically.
			const extra = 37
			genBefore := seg.Generation()
			keys := make([]int32, len(c.Schema.Hiers))
			vals := make([]float64, len(c.Schema.Measures))
			for r := 0; r < extra; r++ {
				for h := range keys {
					keys[h] = c.Fact.Keys[h][r]
				}
				for m := range vals {
					vals[m] = c.Fact.Meas[m][r]
				}
				if err := c.Fact.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
				if err := segFact.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
			}
			if got := seg.Generation(); got != genBefore+extra {
				t.Fatalf("generation after %d WAL appends: %d, want %d", extra, got, genBefore+extra)
			}
			if segFact.Rows() != c.Fact.Rows() {
				t.Fatalf("row counts diverge: segment %d, resident %d", segFact.Rows(), c.Fact.Rows())
			}
			sweep("after-append")

			before := factSt.Info()
			if before.TailRows != extra {
				t.Fatalf("WAL tail %d rows, want %d", before.TailRows, extra)
			}
			if err := factSt.Compact(); err != nil {
				t.Fatal(err)
			}
			after := factSt.Info()
			if after.Compactions <= before.Compactions || after.TailRows != 0 {
				t.Fatalf("compaction did not fold the tail: %+v → %+v", before, after)
			}
			sweep("after-compact")
		})
	}
}

// TestViewMaintenanceByDelta is the oracle's append phase for
// materialized views. Each configuration — the views, lattice and segment
// axes, the last with views added and morsel-parallel scans, so that a
// delta large enough is absorbed by several workers — starts from the
// first half of the generated fact and receives the second half in
// bursts, reads in between: a short burst; one longer than a segment,
// followed on the segment store by an explicit Compact, which leaves
// every view's mark inside a folded segment; a version bump with no row;
// a single row; the rest. After each step every delta-maintained view is
// read whole and must equal, cell for cell and bit for bit — the measures
// are integers, AVG, MIN, MAX and COUNT included — the same view freshly
// built over the same storage, and the view-less resident reference; the
// statement batch must agree three ways too (coarser queries go through
// the views' auxiliary columns, POP pivots through their exact cells). No view may be
// dropped on the way, and none rebuilt more than once: a view whose dense
// table was too sparse to keep is rebuilt through a slot table the first
// time it is found stale, and refreshed like the others from then on.
// The maintained session has the result cache on, and each statement is
// run on it until it hits (the cache axis), tracking a Body as a server
// does, so that an evaluation after an append that overlapped the
// statement is stored as a base: every answer, entries kept across the
// step's append and bases included, must equal the cache-off reference,
// and over the whole test some entry must have been kept.
func TestViewMaintenanceByDelta(t *testing.T) {
	counter := func(action string) int64 {
		return obsv.Default.Counter("assess_engine_view_stale_total", "", "action", action).Value()
	}
	var kept int64 // hits on an entry that outlived an append, over every run
	defer func() {
		if !t.Failed() && kept == 0 {
			t.Error("no cache entry outlived an append: the cache axis did not exercise kept entries")
		}
	}()
	for _, seed := range seedsUnderTest(t) {
		for _, ax := range []struct {
			name              string
			views             string
			segment, parallel bool
		}{
			{"views", "exact", false, false},
			{"lattice", "lattice", false, false},
			{"segment", "lattice", true, true},
		} {
			ax := ax
			t.Run(fmt.Sprintf("seed%d/%s", seed, ax.name), func(t *testing.T) {
				c := Generate(seed)
				half := c.Fact.Rows() / 2
				prefix := storage.NewFactTable(c.Schema)
				replayRows(c.Fact, 0, half, prefix)

				ref := core.NewSession()
				if err := ref.RegisterCube(TargetCube, prefix); err != nil {
					t.Fatal(err)
				}
				if err := ref.RegisterCube(ExtCube, c.ExtFact); err != nil {
					t.Fatal(err)
				}

				fact, ext := copyFact(prefix), c.ExtFact
				if ax.segment {
					var cf, ce func()
					var err error
					if fact, cf, err = segmentCopy(prefix); err != nil {
						t.Fatal(err)
					}
					defer cf()
					if ext, ce, err = segmentCopy(c.ExtFact); err != nil {
						t.Fatal(err)
					}
					defer ce()
					persist.ReconcileSchemas(fact.Schema, ext.Schema)
				}
				sets := c.Views
				if ax.views == "lattice" {
					sets = c.LatticeViews
				}
				// viewSession materializes the axis' views over the current
				// rows of fact: once for the maintained session, then after
				// every step for the freshly built one it is held against.
				viewSession := func() *core.Session {
					s := core.NewSession()
					if err := s.RegisterCube(TargetCube, fact); err != nil {
						t.Fatal(err)
					}
					if err := s.RegisterCube(ExtCube, ext); err != nil {
						t.Fatal(err)
					}
					if ax.parallel {
						s.Engine.SetParallelism(oracleWorkers)
						s.Engine.SetMorselSize(oracleMorselRows)
					}
					for _, v := range sets {
						if err := s.Materialize(TargetCube, v...); err != nil {
							t.Fatal(err)
						}
						if err := s.Materialize(ExtCube, v...); err != nil {
							t.Fatal(err)
						}
					}
					return s
				}
				maintained := viewSession()
				// Cache on: an entry kept across an append that overlaps
				// what it read would diverge.
				maintained.EnableCache(0)

				measures := make([]string, len(c.Schema.Measures))
				for i, m := range c.Schema.Measures {
					measures[i] = m.Name
				}
				check := func(stage string) {
					t.Helper()
					fresh := viewSession()
					for _, v := range sets {
						stmt := fmt.Sprintf("with %s by %s get %s", TargetCube, strings.Join(v, ", "), strings.Join(measures, ", "))
						got, err := maintained.Query(stmt)
						if err != nil {
							t.Fatalf("%s: maintained: %v\n  stmt: %s", stage, err, stmt)
						}
						for name, other := range map[string]*core.Session{"a fresh build": fresh, "the view-less reference": ref} {
							want, err := other.Query(stmt)
							if err != nil {
								t.Fatalf("%s: %s: %v\n  stmt: %s", stage, name, err, stmt)
							}
							if d := diffCubesExact(want.Cube, got.Cube); d != "" {
								t.Errorf("%s: maintained view %v differs from %s: %s", stage, v, name, d)
							}
						}
					}
					for _, stmt := range c.Statements {
						kind, err := ref.BenchmarkKind(stmt)
						if err != nil {
							t.Fatal(err)
						}
						for _, strat := range core.FeasibleStrategies(kind) {
							rows := make([][]exec.Row, 0, 2)
							for _, s := range []*core.Session{ref, fresh} {
								res, _, _, err := execTracked(s, stmt, strat)
								if err != nil {
									t.Fatalf("%s/%v: %v\n  stmt: %s", stage, strat, err, stmt)
								}
								r, err := canonRows(res)
								if err != nil {
									t.Fatal(err)
								}
								rows = append(rows, r)
							}
							if d := diffRows(rows[0], rows[1]); d != "" {
								t.Errorf("%s/%v: fresh views diverge from the reference: %s\n  stmt: %s", stage, strat, d, stmt)
							}
							// The cache axis: run the statement on the maintained
							// session until it hits. Each answer — an entry kept
							// from before the step, an evaluation, the stored
							// result — must be the cache-off reference's.
							for run := 1; ; run++ {
								ctx, _ := maintained.TrackBody(context.Background())
								res, state, err := maintained.ExecWithTrackedContext(ctx, stmt, strat)
								if err != nil {
									t.Fatalf("%s/%v: maintained: %v\n  stmt: %s", stage, strat, err, stmt)
								}
								r, err := canonRows(res)
								if err != nil {
									t.Fatal(err)
								}
								if d := diffRows(rows[0], r); d != "" {
									t.Errorf("%s/%v run %d (%s): maintained views and cache diverge from the reference: %s\n  stmt: %s", stage, strat, run, state, d, stmt)
									break
								}
								if state == qcache.StateHit {
									break
								}
								if run == 3 {
									t.Errorf("%s/%v: no hit in %d runs\n  stmt: %s", stage, strat, run, stmt)
									break
								}
							}
						}
					}
					for _, vi := range maintained.ViewStats().Views {
						if vi.Fact == TargetCube && !vi.Stale && vi.Rows != fact.Rows() {
							t.Errorf("%s: view %v is tagged fresh at mark %d; the fact has %d rows", stage, vi.Levels, vi.Rows, fact.Rows())
						}
					}
				}

				refreshed, rebuilt, dropped := counter("refreshed"), counter("rebuilt"), counter("dropped")
				at := half
				burst := func(n int) {
					replayRows(c.Fact, at, at+n, prefix, fact)
					at += n
				}
				check("cold")
				burst(37)
				check("short burst")
				burst(oracleSegmentRows + 41)
				if ax.segment {
					st := fact.Segments().(*colstore.Store)
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
					if info := st.Info(); info.TailRows != 0 || info.Compactions == 0 {
						t.Fatalf("compaction did not fold the tail: %+v", info)
					}
				}
				check("burst longer than a segment")
				fact.AdvanceVersion(5)
				check("version bump without rows")
				burst(1)
				check("one row")
				burst(c.Fact.Rows() - at)
				check("the rest")

				if d := counter("rebuilt") - rebuilt; d > int64(len(sets)) {
					t.Errorf("%d rebuilds of %d views; a view is rebuilt once at most", d, len(sets))
				}
				if d := counter("dropped") - dropped; d != 0 {
					t.Errorf("%d views were dropped", d)
				}
				if len(sets) > 0 && counter("refreshed") == refreshed {
					t.Error("no view was ever refreshed: the phase did not exercise the delta path")
				}
				st, _ := maintained.CacheStats()
				kept += st.Kept
			})
		}
	}
}

// diffCubesExact compares two coordinate-sorted cubes bit for bit.
func diffCubesExact(want, got *cube.Cube) string {
	if got.Len() != want.Len() || len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("%d cells × %d measures, want %d × %d", got.Len(), len(got.Cols), want.Len(), len(want.Cols))
	}
	for i := range want.Len() {
		coord := want.Coord(i)
		if !slices.Equal(got.Coord(i), coord) {
			return fmt.Sprintf("cell %d is %v, want %v", i, got.Coord(i), coord)
		}
		for j := range want.Cols {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(want.Cols[j][i]) {
				return fmt.Sprintf("cell %v measure %s = %v, want %v", coord, want.Names[j], got.Cols[j][i], want.Cols[j][i])
			}
		}
	}
	return ""
}
