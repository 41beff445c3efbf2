// Package oracle is a differential correctness oracle for the assess
// evaluation stack. From one seed it deterministically generates a
// random star schema (hierarchies, dictionaries, fact rows), an
// external benchmark cube reconciled with it, and a batch of well-typed
// assess statements over them; the harness (harness.go) then evaluates
// every statement along every execution axis — NP vs JOP vs POP plan,
// serial vs partitioned fact scan, scan vs exact materialized view vs
// roll-up from a strictly finer view, and cache-off vs cold vs warm
// query-result cache, segment store and shards — and asserts that all
// of them produce the same canonicalized result set, which the tests
// hold in turn to a referee evaluated from the language's definitions
// (referee_test.go).
//
// The paper's central optimization claim (Section 5) is that the JOP
// and POP rewrites are semantically equivalent to the naive plan; the
// oracle turns that claim, plus the equivalence of the axes added on
// top of it, into an executable property: any discrepancy reproduces
// from a one-line seed.
//
// Measure values are generated as small integers (stored as float64).
// Integer sums stay exact under any association order, so partitioned
// scans, merged partial aggregates, and re-ordered client joins produce
// bitwise-identical aggregates, and label comparison can be exact. The
// harness still compares floats ULP-tolerantly to stay robust if a
// future axis introduces genuine rounding differences.
package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/storage"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// TargetCube and ExtCube are the catalog names the generated cubes are
// registered under.
const (
	TargetCube = "CUBE"
	ExtCube    = "EXTB"
)

// Case is everything generated from one seed.
type Case struct {
	Seed      int64
	Schema    *mdm.Schema
	Fact      *storage.FactTable
	ExtSchema *mdm.Schema
	ExtFact   *storage.FactTable
	// Statements are rendered assess statements, each guaranteed by
	// construction to parse and bind against the generated catalog.
	Statements []string
	// Views are group-by level-name sets worth materializing: the
	// harness materializes them on some sessions to cross-check the
	// view path against plain fact scans.
	Views [][]string
	// LatticeViews are strictly finer covering views: for each
	// statement, the finest levels it touches with one hierarchy
	// refined (or added), so the aggregate navigator must answer by
	// re-aggregating view cells through the roll-up lattice rather
	// than serving them verbatim.
	LatticeViews [][]string
}

// genHier builds a hierarchy with the given per-level dictionary sizes
// (finest first). Member ids roll up monotonically (parent = id·|up|/|lo|),
// so member names — zero-padded by id — sort lexicographically at every
// level; hierarchy 0 doubles as the temporal hierarchy, where that order
// is the chronological order past benchmarks rely on.
func genHier(h int, sizes []int) *mdm.Hierarchy {
	levels := make([]string, len(sizes))
	for d := range sizes {
		levels[d] = fmt.Sprintf("lv%d%c", h, 'a'+d)
	}
	hier := mdm.NewHierarchy(fmt.Sprintf("H%d", h), levels...)
	for i := 0; i < sizes[0]; i++ {
		path := make([]string, len(sizes))
		id := i
		for d := range sizes {
			path[d] = fmt.Sprintf("h%dl%dm%03d", h, d, id)
			if d+1 < len(sizes) {
				id = id * sizes[d+1] / sizes[d]
			}
		}
		hier.MustAddMember(path...)
	}
	return hier
}

// genSizes draws a level-size profile: base cardinality first, each
// coarser level strictly smaller but at least 2.
func genSizes(rng *rand.Rand, depth int) []int {
	sizes := make([]int, depth)
	sizes[0] = 6 + rng.Intn(10) // 6..15 base members
	for d := 1; d < depth; d++ {
		lo := 2
		hi := sizes[d-1] - 1
		if hi < lo {
			hi = lo
		}
		sizes[d] = lo + rng.Intn(hi-lo+1)
	}
	return sizes
}

var aggOps = []mdm.AggOp{mdm.AggSum, mdm.AggAvg, mdm.AggMin, mdm.AggMax, mdm.AggCount}

// Generate builds the full case for a seed.
func Generate(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	c := &Case{Seed: seed}

	// Hierarchies: hier 0 is temporal (depth >= 2 so past statements can
	// slice at a coarser level too); hier 1 always has depth >= 2 so an
	// ancestor benchmark is always expressible; 0-2 extra hierarchies.
	nHiers := 2 + rng.Intn(3)
	hiers := make([]*mdm.Hierarchy, nHiers)
	hiers[0] = genHier(0, genSizes(rng, 2+rng.Intn(2)))
	hiers[1] = genHier(1, genSizes(rng, 2+rng.Intn(2)))
	for h := 2; h < nHiers; h++ {
		hiers[h] = genHier(h, genSizes(rng, 1+rng.Intn(3)))
	}

	// Measures: m0 is always a sum (the most common assessed measure);
	// the rest draw random aggregation operators.
	nMeas := 1 + rng.Intn(3)
	measures := make([]mdm.Measure, nMeas)
	measures[0] = mdm.Measure{Name: "m0", Op: mdm.AggSum}
	for m := 1; m < nMeas; m++ {
		measures[m] = mdm.Measure{Name: fmt.Sprintf("m%d", m), Op: aggOps[rng.Intn(len(aggOps))]}
	}
	c.Schema = mdm.NewSchema(TargetCube, hiers, measures)

	// The external benchmark cube shares every hierarchy (reconciled in
	// the sense of Definition 3.1), with one measure of its own.
	extOp := aggOps[rng.Intn(len(aggOps))]
	c.ExtSchema = mdm.NewSchema(ExtCube, hiers, []mdm.Measure{{Name: "x0", Op: extOp}})

	// Fact rows: uniform keys, small-integer measure values (see the
	// package comment for why integers matter). The external cube is
	// sparser so drill-across joins genuinely drop cells, exercising the
	// assess vs assess* distinction.
	c.Fact = genFact(rng, c.Schema, 800+rng.Intn(2400), 1.0)
	c.ExtFact = genFact(rng, c.ExtSchema, 300+rng.Intn(900), 0.7)

	c.Statements = genStatements(rng, c)
	c.Views = genViews(rng, c.Statements)
	c.LatticeViews = genLatticeViews(rng, c)
	return c
}

// genFact fills a fact table. keyFrac < 1 restricts each hierarchy to a
// prefix of its base dictionary, leaving some members fact-less.
func genFact(rng *rand.Rand, s *mdm.Schema, rows int, keyFrac float64) *storage.FactTable {
	f := storage.NewFactTable(s)
	f.Reserve(rows)
	limits := make([]int, len(s.Hiers))
	for h, hier := range s.Hiers {
		n := hier.Dict(0).Len()
		limits[h] = int(float64(n) * keyFrac)
		if limits[h] < 1 {
			limits[h] = 1
		}
	}
	keys := make([]int32, len(s.Hiers))
	vals := make([]float64, len(s.Measures))
	for r := 0; r < rows; r++ {
		for h := range keys {
			keys[h] = int32(rng.Intn(limits[h]))
		}
		for m := range vals {
			vals[m] = float64(rng.Intn(401) - 200)
		}
		f.MustAppend(keys, vals)
	}
	return f
}

// pick returns n distinct values drawn from 0..max-1.
func pick(rng *rand.Rand, max, n int) []int {
	perm := rng.Perm(max)
	return perm[:n]
}

// stmtKinds are the benchmark shapes the generator cycles through; the
// first six guarantee one statement of every kind per case.
var stmtKinds = []string{"absolute", "constant", "external", "sibling", "past", "ancestor"}

func genStatements(rng *rand.Rand, c *Case) []string {
	n := len(stmtKinds) + rng.Intn(7) // 6..12 statements
	seen := make(map[string]bool)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		kind := stmtKinds[i%len(stmtKinds)]
		st := genStatement(rng, c, kind)
		text := st.Render()
		if seen[text] {
			continue
		}
		seen[text] = true
		out = append(out, text)
	}
	return out
}

// levelName returns the schema name of hier h's level at depth d.
func levelName(s *mdm.Schema, h, d int) string {
	return s.Hiers[h].Levels()[d]
}

// genStatement builds one statement AST of the requested benchmark
// kind. Every choice respects the binder's validation rules, so the
// rendered text must parse and bind; the harness treats a bind failure
// as a generator bug and reports it with the seed.
func genStatement(rng *rand.Rand, c *Case, kind string) *parser.Statement {
	s := c.Schema
	st := &parser.Statement{Cube: TargetCube, Star: rng.Float64() < 0.3}
	st.Measure = s.Measures[rng.Intn(len(s.Measures))].Name

	// byLevel[h] = depth of hier h's by-clause level, or -1 when the
	// hierarchy is fully aggregated. Kind-specific requirements fill in
	// mandatory levels first; extras are sprinkled afterwards.
	byLevel := make([]int, len(s.Hiers))
	for h := range byLevel {
		byLevel[h] = -1
	}

	switch kind {
	case "absolute":
		// no against clause

	case "constant":
		st.Against = &parser.Benchmark{Kind: parser.BenchConstant, Value: float64(rng.Intn(201) - 100)}

	case "external":
		st.Against = &parser.Benchmark{Kind: parser.BenchExternal, Cube: ExtCube, Measure: "x0"}

	case "sibling":
		h := rng.Intn(len(s.Hiers))
		d := rng.Intn(s.Hiers[h].Depth())
		dict := s.Hiers[h].Dict(d)
		for dict.Len() < 2 { // every generated level has >= 2 members, but stay defensive
			h = (h + 1) % len(s.Hiers)
			d = 0
			dict = s.Hiers[h].Dict(d)
		}
		ids := pick(rng, dict.Len(), 2)
		byLevel[h] = d
		st.For = append(st.For, parser.Predicate{
			Level: levelName(s, h, d), Values: []string{dict.Name(int32(ids[0]))},
		})
		st.Against = &parser.Benchmark{
			Kind: parser.BenchSibling, Level: levelName(s, h, d), Member: dict.Name(int32(ids[1])),
		}

	case "past":
		d := rng.Intn(s.Hiers[0].Depth())
		dict := s.Hiers[0].Dict(d)
		// Member ids coincide with lexicographic (chronological) order;
		// id >= 1 guarantees at least one predecessor.
		u := 1 + rng.Intn(dict.Len()-1)
		byLevel[0] = d
		// The temporal slice must be the first single-member predicate on
		// a by-clause level, so it leads the for clause.
		st.For = append(st.For, parser.Predicate{
			Level: levelName(s, 0, d), Values: []string{dict.Name(int32(u))},
		})
		st.Against = &parser.Benchmark{Kind: parser.BenchPast, K: 1 + rng.Intn(4)}

	case "ancestor":
		// Hier 1 always has depth >= 2: child at a proper descendant of
		// the ancestor level.
		h := 1
		depth := s.Hiers[h].Depth()
		anc := 1 + rng.Intn(depth-1)
		child := rng.Intn(anc)
		byLevel[h] = child
		st.Against = &parser.Benchmark{Kind: parser.BenchAncestor, Level: levelName(s, h, anc)}
	}

	// Extra by-levels on unused hierarchies (keep the result cardinality
	// bounded: at most three grouped hierarchies).
	grouped := 0
	for _, d := range byLevel {
		if d >= 0 {
			grouped++
		}
	}
	for h := range s.Hiers {
		if grouped >= 3 {
			break
		}
		if byLevel[h] < 0 && rng.Float64() < 0.6 {
			byLevel[h] = rng.Intn(s.Hiers[h].Depth())
			grouped++
		}
	}
	if grouped == 0 { // a by clause is mandatory
		h := rng.Intn(len(s.Hiers))
		byLevel[h] = rng.Intn(s.Hiers[h].Depth())
	}
	for h, d := range byLevel {
		if d >= 0 {
			st.By = append(st.By, levelName(s, h, d))
		}
	}

	// Extra predicates. For past statements they must not precede the
	// temporal slice as a single-member predicate on a by-level, so they
	// are restricted to non-grouped hierarchies; other kinds may filter
	// anywhere not already predicated.
	for h := range s.Hiers {
		if rng.Float64() > 0.3 {
			continue
		}
		if predicated(st.For, s, h) {
			continue
		}
		if kind == "past" && byLevel[h] >= 0 {
			continue
		}
		d := rng.Intn(s.Hiers[h].Depth())
		dict := s.Hiers[h].Dict(d)
		nVals := 1 + rng.Intn(2)
		if nVals > dict.Len() {
			nVals = dict.Len()
		}
		ids := pick(rng, dict.Len(), nVals)
		sort.Ints(ids)
		vals := make([]string, len(ids))
		for i, id := range ids {
			vals[i] = dict.Name(int32(id))
		}
		st.For = append(st.For, parser.Predicate{Level: levelName(s, h, d), Values: vals})
	}

	genUsing(rng, c, st)
	genLabels(rng, c, st, byLevel)
	return st
}

// predicated reports whether the for clause already filters hierarchy h.
func predicated(preds []parser.Predicate, s *mdm.Schema, h int) bool {
	for _, p := range preds {
		if ref, ok := s.FindLevel(p.Level); ok && ref.Hier == h {
			return true
		}
	}
	return false
}

// genUsing draws a comparison expression compatible with the statement's
// benchmark (or leaves it to the binder's default).
func genUsing(rng *rand.Rand, c *Case, st *parser.Statement) {
	m := &parser.Ref{Name: st.Measure}
	if st.Against == nil {
		switch rng.Intn(5) {
		case 0: // default identity(m)
		case 1:
			st.Using = &parser.Call{Name: "identity", Args: []parser.Expr{m}}
		case 2:
			st.Using = &parser.Call{Name: "zScore", Args: []parser.Expr{m}}
		case 3:
			st.Using = &parser.Call{Name: "rank", Args: []parser.Expr{m}}
		case 4:
			st.Using = &parser.Call{Name: "minMaxNorm", Args: []parser.Expr{m}}
		}
		return
	}
	benchName := st.Measure
	if st.Against.Kind == parser.BenchExternal {
		benchName = st.Against.Measure
	}
	bm := &parser.Ref{Benchmark: true, Name: benchName}
	diff := &parser.Call{Name: "difference", Args: []parser.Expr{m, bm}}
	switch rng.Intn(9) {
	case 0: // default difference(m, benchmark.m)
	case 1:
		st.Using = diff
	case 2:
		st.Using = &parser.Call{Name: "absDifference", Args: []parser.Expr{m, bm}}
	case 3:
		st.Using = &parser.Call{Name: "ratio", Args: []parser.Expr{m, bm}}
	case 4:
		st.Using = &parser.Call{Name: "normDifference", Args: []parser.Expr{m, bm}}
	case 5:
		st.Using = &parser.Call{Name: "percOfTotal", Args: []parser.Expr{diff}}
	case 6:
		st.Using = &parser.Call{Name: "minMaxNorm", Args: []parser.Expr{diff}}
	case 7:
		st.Using = &parser.Call{Name: "rank", Args: []parser.Expr{diff}}
	case 8:
		st.Using = &parser.Call{Name: "ratio", Args: []parser.Expr{diff, &parser.Number{Value: float64(1 + rng.Intn(100))}}}
	}
}

// namedLabelers are the library labelers the generator draws from.
// "clusters" (1-D k-means) is excluded: its silhouette search is
// quadratic in the result cardinality, which would dominate oracle
// runtime without adding coverage beyond the quantile labelers.
var namedLabelers = []string{"quartiles", "terciles", "quintiles", "deciles", "zscore", "5stars"}

// genLabels draws a labels clause: a library labeler or an inline
// complete range set, optionally scoped with within.
func genLabels(rng *rand.Rand, c *Case, st *parser.Statement, byLevel []int) {
	if rng.Float64() < 0.6 {
		st.Labels.Named = namedLabelers[rng.Intn(len(namedLabelers))]
	} else {
		b0 := float64(rng.Intn(101) - 60)
		b1 := b0 + float64(1+rng.Intn(60))
		st.Labels.Ranges = []parser.Range{
			{Lo: negInf, Hi: b0, HiOpen: true, Label: "low"},
			{Lo: b0, Hi: b1, HiOpen: true, Label: "mid"},
			{Lo: b1, Hi: posInf, Label: "high"},
		}
	}
	// within: a coarser-or-equal level of a grouped hierarchy.
	if rng.Float64() < 0.2 {
		var candidates []string
		for h, d := range byLevel {
			if d < 0 {
				continue
			}
			for dd := d; dd < c.Schema.Hiers[h].Depth(); dd++ {
				candidates = append(candidates, levelName(c.Schema, h, dd))
			}
		}
		if len(candidates) > 0 {
			st.Labels.Within = candidates[rng.Intn(len(candidates))]
		}
	}
}

// genViews picks up to three distinct by-clause level sets from the
// generated statements as materialization candidates.
func genViews(rng *rand.Rand, stmts []string) [][]string {
	seen := make(map[string]bool)
	var views [][]string
	for _, text := range stmts {
		st, err := parser.Parse(text)
		if err != nil {
			continue
		}
		key := fmt.Sprint(st.By)
		if seen[key] {
			continue
		}
		seen[key] = true
		views = append(views, append([]string(nil), st.By...))
	}
	rng.Shuffle(len(views), func(i, j int) { views[i], views[j] = views[j], views[i] })
	if len(views) > 3 {
		views = views[:3]
	}
	return views
}

// genLatticeViews derives, for each statement, a materialization
// candidate that covers the statement's queries through the roll-up
// lattice without matching them exactly. Per hierarchy the view keeps
// the finest level the statement touches (by clause, predicates,
// sibling/ancestor benchmark levels — the navigator's covering rule
// needs predicate hierarchies too), then the set is made strictly
// finer: one touched hierarchy drops a level, or an untouched
// hierarchy is added, so answering must re-aggregate view cells.
func genLatticeViews(rng *rand.Rand, c *Case) [][]string {
	s := c.Schema
	seen := make(map[string]bool)
	var views [][]string
	for _, text := range c.Statements {
		st, err := parser.Parse(text)
		if err != nil {
			continue
		}
		// depth[h]: finest level of hier h the statement touches, -1 when
		// untouched (fully aggregated, no predicate).
		depth := make([]int, len(s.Hiers))
		for h := range depth {
			depth[h] = -1
		}
		touch := func(name string) {
			if ref, ok := s.FindLevel(name); ok {
				if depth[ref.Hier] < 0 || ref.Level < depth[ref.Hier] {
					depth[ref.Hier] = ref.Level
				}
			}
		}
		for _, lv := range st.By {
			touch(lv)
		}
		for _, p := range st.For {
			touch(p.Level)
		}
		if st.Against != nil && st.Against.Level != "" {
			touch(st.Against.Level)
		}
		// Strictly refine: prefer dropping a touched hierarchy one level
		// finer; otherwise pull in an untouched hierarchy at any level.
		order := rng.Perm(len(depth))
		finer := false
		for _, h := range order {
			if depth[h] > 0 {
				depth[h]--
				finer = true
				break
			}
		}
		if !finer {
			for _, h := range order {
				if depth[h] < 0 {
					depth[h] = rng.Intn(s.Hiers[h].Depth())
					break
				}
			}
		}
		var names []string
		for h, d := range depth {
			if d >= 0 {
				names = append(names, levelName(s, h, d))
			}
		}
		if len(names) == 0 {
			continue
		}
		key := fmt.Sprint(names)
		if seen[key] {
			continue
		}
		seen[key] = true
		views = append(views, names)
	}
	if len(views) > 4 {
		views = views[:4]
	}
	return views
}
