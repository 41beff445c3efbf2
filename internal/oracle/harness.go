package oracle

import (
	"context"
	"fmt"
	"os"
	"sync"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/storage"
)

// Discrepancy is one observed divergence between an execution axis and
// the reference evaluation, with everything needed to reproduce it.
type Discrepancy struct {
	Seed   int64
	Stmt   string
	Axis   string // e.g. "par+views/JOP", "cache/POP warm"
	Detail string
}

// String renders the discrepancy with a one-line repro command.
func (d Discrepancy) String() string {
	return fmt.Sprintf("seed %d, axis %s: %s\n  stmt:  %s\n  repro: ORACLE_SEED=%d go test ./internal/oracle -run TestDifferential",
		d.Seed, d.Axis, d.Detail, d.Stmt, d.Seed)
}

// Report summarizes one differential run.
type Report struct {
	Seed          int64
	Statements    int
	Comparisons   int // result sets checked against the reference
	Discrepancies []Discrepancy
}

// axes are the session configurations the harness cross-checks. The
// reference is NP on the first (serial hash kernel, no views, no cache);
// every other axis must reproduce it bit-for-bit on coordinates and
// labels and ULP-exactly on numeric columns, for every feasible
// strategy. The kernel dimension (dense vs hash × serial vs
// morsel-parallel) pins the vectorized dense-key kernels of
// internal/engine against the hash path: the generator emits
// integer-valued measures, so the two must agree bit-exactly. The views
// dimension has two modes: "exact" materializes the statements' own
// group-by sets (views served verbatim), "lattice" materializes
// strictly finer covering views (Case.LatticeViews), forcing the
// aggregate navigator to re-aggregate view cells through the roll-up
// lattice — serially on the hash kernels (lattice) and morsel-parallel
// on the dense kernels (par+lattice).
// The storage dimension (segment axes) rebuilds both cubes as
// segment-backed tables in a temp directory with segments far smaller
// than the fact, so block-at-a-time scans, segment decode, and zone-map
// pruning must reproduce the resident reference bit-for-bit. The segment
// axes pin the eager decode path (colstore.Options.Eager); the lazy axes
// run the same stores in the default late-materialized mode, so
// code-space predicate evaluation, selection bitmaps, segment skips, and
// gather decode must also reproduce the reference bit-for-bit — lazy+par
// layers the morsel-parallel dense kernels on top, consuming backend
// bitmaps across worker-stolen blocks, and is the axis of the concurrent
// sweep (see Run): every (statement, strategy) pair re-executed at once,
// so concurrent scans over one segment store — shared snapshots, pooled
// scratch — must reproduce the reference too.
// The sharded axes hash-split both cubes across an in-process cluster
// (1, 2, 3, or 5 shards by seed) and scatter-gather every scan through
// internal/dist: partial aggregation on each shard, wire encode/decode,
// and the engine's combine of the replies must reproduce the unsharded
// reference bit-for-bit — the generator's integer-valued measures make every
// shard association order exact. sharded+par additionally runs each
// worker's scans morsel-parallel on the dense kernels.
var axes = []struct {
	name     string
	parallel bool
	views    string // "", "exact", or "lattice"
	cache    bool
	dense    bool
	segment  bool
	lazy     bool // segment store in late-materialized (default) mode
	sweep    bool // also runs the concurrent sweep
	sharded  bool
}{
	{"base", false, "", false, false, false, false, false, false},
	{"dense", false, "", false, true, false, false, false, false},
	{"par", true, "", false, false, false, false, false, false},
	{"dense+par", true, "", false, true, false, false, false, false},
	{"views", false, "exact", false, true, false, false, false, false},
	{"par+views", true, "exact", false, true, false, false, false, false},
	{"lattice", false, "lattice", false, false, false, false, false, false},
	{"par+lattice", true, "lattice", false, true, false, false, false, false},
	{"cache", false, "", true, true, false, false, false, false},
	{"cache+par+views", true, "exact", true, true, false, false, false, false},
	{"segment", false, "", false, false, true, false, false, false},
	{"segment+par", true, "", false, true, true, false, false, false},
	{"lazy", false, "", false, false, true, true, false, false},
	{"lazy+par", true, "", false, true, true, true, true, false},
	{"sharded", false, "", false, false, false, false, false, true},
	{"sharded+par", true, "", false, true, false, false, false, true},
}

// oracleShardCounts rotates the sharded axes' cluster size by seed:
// a 1-shard cluster pins the degenerate wire round trip, the larger
// counts exercise genuine cross-shard merges. Over a wide sweep every
// count is hit many times.
var oracleShardCounts = []int{1, 2, 3, 5}

// shardCountFor picks the sharded axes' cluster size for a seed.
func shardCountFor(seed int64) int {
	return oracleShardCounts[int(seed)%len(oracleShardCounts)]
}

// oracleWorkers is the scan parallelism of the parallel axes,
// oracleMinParRows the per-worker row floor, and oracleMorselRows the
// morsel size: low enough that the generated facts (hundreds to a few
// thousand rows) genuinely split into more morsels than workers, so
// work-stealing and the partial-state merges are on the tested path.
const (
	oracleWorkers    = 4
	oracleMinParRows = 97
	oracleMorselRows = 53
)

// oracleDenseBudget forces the dense kernels onto every generated
// group-by set (their key spaces stay far smaller than this) on the
// dense axes; the hash axes disable dense with SetDenseKeyBudget(0).
const oracleDenseBudget = 1 << 22

// oracleSegmentRows keeps segment-axis segments far smaller than the
// generated facts (hundreds to a few thousand rows), so every sweep
// crosses many segment boundaries.
const oracleSegmentRows = 256

// traceEnabled turns on span collection for every oracle execution
// (ORACLE_TRACE=1): each statement runs under a live trace, proving the
// instrumentation path produces identical results to the plain path,
// and every finished trace is checked for well-formedness.
var traceEnabled = os.Getenv("ORACLE_TRACE") == "1"

// execTracked runs a statement, under a trace when ORACLE_TRACE=1, and
// returns the finished root span (nil when tracing is off) alongside
// the usual results.
func execTracked(s *core.Session, stmt string, strat plan.Strategy) (*exec.Result, core.CacheState, *obsv.Span, error) {
	if !traceEnabled {
		res, state, err := s.ExecWithTracked(stmt, strat)
		return res, state, nil, err
	}
	ctx, tr := obsv.NewTrace(context.Background(), "oracle")
	res, state, err := s.ExecWithTrackedContext(ctx, stmt, strat)
	return res, state, tr.Finish(), err
}

// checkTrace validates a finished span tree: positive durations, named
// spans, and children fully contained in the statement's span set.
func checkTrace(root *obsv.Span) string {
	if root == nil {
		return "trace missing"
	}
	var walk func(s *obsv.Span) string
	walk = func(s *obsv.Span) string {
		if s.Name == "" {
			return "unnamed span"
		}
		if s.Duration < 0 {
			return fmt.Sprintf("span %s: negative duration %v", s.Name, s.Duration)
		}
		for _, c := range s.Children {
			if msg := walk(c); msg != "" {
				return msg
			}
		}
		return ""
	}
	return walk(root)
}

// segmentCopy rebuilds a resident fact table as a segment-backed one in
// a fresh temp directory. Background compaction is disabled so the
// segment layout is deterministic; eager pins the pre-late-
// materialization decode path (false leaves the default lazy mode on).
// The returned cleanup closes the store and removes the directory.
func segmentCopy(f *storage.FactTable, eager bool) (*storage.FactTable, func(), error) {
	dir, err := os.MkdirTemp("", "oracle-seg-")
	if err != nil {
		return nil, nil, err
	}
	opts := colstore.Options{SegmentRows: oracleSegmentRows, AutoCompactRows: -1, Eager: eager}
	if err := persist.SaveCubeDir(dir, f, opts); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	seg, st, err := persist.OpenCubeDir(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return seg, func() { st.Close(); os.RemoveAll(dir) }, nil
}

// shardSession splits both cubes across an in-process cluster of n
// workers (hash-sharded on the first hierarchy's base level) and
// installs a scatter-gather coordinator on s. The worker engines get
// the same kernel knobs as the coordinator session so the sharded axes
// test the intended kernel dimension shard-side too.
func shardSession(s *core.Session, fact, ext *storage.FactTable, n int, parallel, dense bool) error {
	level := mdm.LevelRef{Hier: 0, Level: 0}
	lc := dist.NewLocalCluster(n)
	if err := lc.AddFact(TargetCube, fact, level); err != nil {
		return err
	}
	if err := lc.AddFact(ExtCube, ext, level); err != nil {
		return err
	}
	for _, w := range lc.Workers {
		we := w.Engine()
		if dense {
			we.SetDenseKeyBudget(oracleDenseBudget)
		} else {
			we.SetDenseKeyBudget(0)
		}
		if parallel {
			we.SetParallelism(oracleWorkers)
			we.SetParallelMinRows(oracleMinParRows)
			we.SetMorselSize(oracleMorselRows)
		}
	}
	coord := dist.NewCoordinator(s.Engine, dist.Config{})
	if err := coord.AddTable(TargetCube, level, lc.Clients(), true); err != nil {
		return err
	}
	if err := coord.AddTable(ExtCube, level, lc.Clients(), true); err != nil {
		return err
	}
	s.EnableDistributed(coord)
	return nil
}

func buildSession(c *Case, parallel bool, views string, cache, dense, segment, lazy bool, shards int) (*core.Session, func(), error) {
	cleanup := func() {}
	fact, ext := c.Fact, c.ExtFact
	if segment {
		var cf, ce func()
		var err error
		if fact, cf, err = segmentCopy(c.Fact, !lazy); err != nil {
			return nil, cleanup, err
		}
		if ext, ce, err = segmentCopy(c.ExtFact, !lazy); err != nil {
			cf()
			return nil, cleanup, err
		}
		cleanup = func() { cf(); ce() }
		// The copies decode their hierarchies independently; restore the
		// pointer sharing external-benchmark joins require.
		persist.ReconcileSchemas(fact.Schema, ext.Schema)
	}
	s := core.NewSession()
	if err := s.RegisterCube(TargetCube, fact); err != nil {
		return nil, cleanup, err
	}
	if err := s.RegisterCube(ExtCube, ext); err != nil {
		return nil, cleanup, err
	}
	if dense {
		s.Engine.SetDenseKeyBudget(oracleDenseBudget)
	} else {
		s.Engine.SetDenseKeyBudget(0)
	}
	if parallel {
		s.Engine.SetParallelism(oracleWorkers)
		s.Engine.SetParallelMinRows(oracleMinParRows)
		s.Engine.SetMorselSize(oracleMorselRows)
	}
	if views != "" {
		// The hierarchies are shared, so every view level set applies to
		// the external cube too, putting the view path under the benchmark
		// queries as well as the target queries.
		sets := c.Views
		if views == "lattice" {
			sets = c.LatticeViews
		}
		for _, v := range sets {
			if err := s.Materialize(TargetCube, v...); err != nil {
				return nil, cleanup, err
			}
			if err := s.Materialize(ExtCube, v...); err != nil {
				return nil, cleanup, err
			}
		}
	}
	if cache {
		s.EnableCache(0)
	}
	if shards > 0 {
		if err := shardSession(s, fact, ext, shards, parallel, dense); err != nil {
			return nil, cleanup, err
		}
	}
	return s, cleanup, nil
}

// Run generates the case for a seed and cross-checks every statement
// along every axis. Generator-level failures (a statement that fails to
// parse, render round-trip, or bind) are reported as discrepancies too:
// the generator is constrained to emit well-typed statements, so any
// rejection is a bug on one side of that contract.
func Run(seed int64) *Report {
	c := Generate(seed)
	rep := &Report{Seed: seed, Statements: len(c.Statements)}
	add := func(stmt, axis, detail string) {
		rep.Discrepancies = append(rep.Discrepancies, Discrepancy{
			Seed: seed, Stmt: stmt, Axis: axis, Detail: detail,
		})
	}

	sessions := make([]*core.Session, len(axes))
	for i, ax := range axes {
		shards := 0
		if ax.sharded {
			shards = shardCountFor(seed)
		}
		s, cleanup, err := buildSession(c, ax.parallel, ax.views, ax.cache, ax.dense, ax.segment, ax.lazy, shards)
		defer cleanup()
		if err != nil {
			add("", "setup/"+ax.name, err.Error())
			return rep
		}
		sessions[i] = s
	}
	base := sessions[0]

	// References for the concurrent sweep below.
	wants := make(map[string][]exec.Row, len(c.Statements))
	kinds := make(map[string]parser.BenchmarkKind, len(c.Statements))

	for _, stmt := range c.Statements {
		// Parse → render → parse round trip: the generator renders from an
		// AST, so the text is already canonical and must survive unchanged.
		st, err := parser.Parse(stmt)
		if err != nil {
			add(stmt, "parse", err.Error())
			continue
		}
		if got := st.Render(); got != stmt {
			add(stmt, "render-roundtrip", fmt.Sprintf("re-rendered as %q", got))
		}
		kind, err := base.BenchmarkKind(stmt)
		if err != nil {
			add(stmt, "bind", err.Error())
			continue
		}
		ref, _, span, err := execTracked(base, stmt, plan.NP)
		if err != nil {
			add(stmt, "base/NP", err.Error())
			continue
		}
		if traceEnabled {
			if msg := checkTrace(span); msg != "" {
				add(stmt, "base/NP trace", msg)
			}
		}
		want, err := canonRows(ref)
		if err != nil {
			add(stmt, "base/NP", err.Error())
			continue
		}
		wants[stmt] = want
		kinds[stmt] = kind

		for i, ax := range axes {
			sess := sessions[i]
			for _, strat := range core.FeasibleStrategies(kind) {
				runs := 1
				if ax.cache {
					runs = 2 // cold fill, then warm hit
				}
				for r := 0; r < runs; r++ {
					axis := fmt.Sprintf("%s/%v", ax.name, strat)
					if ax.cache {
						axis += map[int]string{0: " cold", 1: " warm"}[r]
					}
					// The cache-state expectation comes from a probe of the
					// same session, so statements whose bound plans collide on
					// one fingerprint (e.g. an explicit using clause spelling
					// out the default) are expected to hit on their first run.
					expect := qcache.StateOff
					if ax.cache {
						expect = qcache.StateMiss
						if p, perr := sess.PrepareWith(stmt, strat); perr == nil {
							expect = sess.CacheProbe(p)
						}
						if r == 1 {
							expect = qcache.StateHit
						}
					}
					res, state, span, err := execTracked(sess, stmt, strat)
					if err != nil {
						add(stmt, axis, err.Error())
						break
					}
					if traceEnabled {
						if msg := checkTrace(span); msg != "" {
							add(stmt, axis+" trace", msg)
						}
					}
					if state != expect {
						add(stmt, axis, fmt.Sprintf("cache state %q, expected %q", state, expect))
					}
					got, err := canonRows(res)
					if err != nil {
						add(stmt, axis, err.Error())
						break
					}
					if d := diffRows(want, got); d != "" {
						add(stmt, axis, d)
					}
					rep.Comparisons++
				}
			}
		}
	}

	// Concurrent sweep: the per-statement loop above ran one query at a
	// time. Now fire every (statement, strategy) pair at once against the
	// sweep axis' session, so its scans overlap on one segment store;
	// every result must still match the reference bit-for-bit.
	for i, ax := range axes {
		if !ax.sweep {
			continue
		}
		sess := sessions[i]
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, stmt := range c.Statements {
			want, ok := wants[stmt]
			if !ok {
				continue // the reference itself failed; already reported
			}
			for _, strat := range core.FeasibleStrategies(kinds[stmt]) {
				wg.Add(1)
				go func(stmt string, strat plan.Strategy, want []exec.Row) {
					defer wg.Done()
					axis := fmt.Sprintf("%s/%v sweep", ax.name, strat)
					res, _, _, err := execTracked(sess, stmt, strat)
					var detail string
					if err != nil {
						detail = err.Error()
					} else if got, cerr := canonRows(res); cerr != nil {
						detail = cerr.Error()
					} else {
						detail = diffRows(want, got)
					}
					mu.Lock()
					defer mu.Unlock()
					rep.Comparisons++
					if detail != "" {
						add(stmt, axis, detail)
					}
				}(stmt, strat, want)
			}
		}
		wg.Wait()
	}
	return rep
}
