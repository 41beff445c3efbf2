package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/assess-olap/assess/internal/mdm"
)

// statement is one generated request: the program under test only ever
// sees Text, posted to Endpoint.
type statement struct {
	Text     string
	Endpoint string // "/assess" or "/query"
	// Kind is the benchmark kind (constant, external, sibling, past,
	// ancestor) or "get" for plain cube queries.
	Kind string
	// Labels is the statement's label set; every label in a reply must
	// belong to it (the null label is always allowed).
	Labels []string
}

// members draws member names of one level from the generated schema, so
// every statement is valid for whatever dictionaries the seed produced.
type members struct {
	schema *mdm.Schema
	rng    *rand.Rand
}

func (m members) dict(level string) *mdm.Dict {
	ref, ok := m.schema.FindLevel(level)
	if !ok {
		panic("benchmark: SSB schema has no level " + level)
	}
	return m.schema.Dict(ref)
}

// pick returns a random member of the level.
func (m members) pick(level string) string {
	d := m.dict(level)
	return d.Name(int32(m.rng.Intn(d.Len())))
}

// pickTwo returns two distinct members of the level.
func (m members) pickTwo(level string) (string, string) {
	d := m.dict(level)
	a := m.rng.Intn(d.Len())
	b := m.rng.Intn(d.Len() - 1)
	if b >= a {
		b++
	}
	return d.Name(int32(a)), d.Name(int32(b))
}

// month returns a random month with at least back predecessors; SSB
// months are interned in calendar order.
func (m members) month(back int) string {
	d := m.dict("month")
	return d.Name(int32(back + m.rng.Intn(d.Len()-back)))
}

// ranges renders a three-label range set around [lo, hi], jittered by
// the seed so that otherwise equal statements fingerprint differently:
// the result cache keys on the labeler's intervals.
func ranges(rng *rand.Rand, floor string, lo, hi float64, names [3]string) (string, []string) {
	lo += float64(rng.Intn(10000)) / 1e6
	hi += float64(rng.Intn(10000)) / 1e6
	text := fmt.Sprintf("{[%s, %.6f): %s, [%.6f, %.6f]: %s, (%.6f, inf): %s}",
		floor, lo, names[0], lo, hi, names[1], hi, names[2])
	return text, names[:]
}

func forClause(preds ...string) string {
	if len(preds) == 0 {
		return ""
	}
	return " for " + strings.Join(preds, ", ")
}

func eq(level, member string) string { return fmt.Sprintf("%s = '%s'", level, member) }

// shape is one cell of a workload's fixed statement schedule. The
// schedule fixes how many statements of each cost class a run issues;
// the seed only picks members, constants and thresholds and shuffles the
// order, so different seeds execute comparable work.
type shape func(m members) statement

func constantStmt(m members, by string, preds ...string) statement {
	labels, set := ranges(m.rng, "0", 0.8, 1.2, [3]string{"behind", "onTarget", "ahead"})
	return statement{
		Endpoint: "/assess", Kind: "constant", Labels: set,
		Text: fmt.Sprintf("with LINEORDER%s by %s assess revenue against %d using ratio(revenue, benchmark.revenue) labels %s",
			forClause(preds...), by, 500000+m.rng.Intn(1000000), labels),
	}
}

func externalStmt(m members, by string, preds ...string) statement {
	labels, set := ranges(m.rng, "-inf", -0.1, 0.1, [3]string{"under", "onBudget", "over"})
	return statement{
		Endpoint: "/assess", Kind: "external", Labels: set,
		Text: fmt.Sprintf("with LINEORDER%s by %s assess revenue against LINEORDER_BUDGET.expectedRevenue using normDifference(revenue, benchmark.expectedRevenue) labels %s",
			forClause(preds...), by, labels),
	}
}

// siblingStmt slices level on one member and benchmarks against another;
// by must contain level.
func siblingStmt(m members, level, by string, preds ...string) statement {
	target, sibling := m.pickTwo(level)
	labels, set := ranges(m.rng, "0", 0.9, 1.1, [3]string{"down", "flat", "up"})
	preds = append([]string{eq(level, target)}, preds...)
	return statement{
		Endpoint: "/assess", Kind: "sibling", Labels: set,
		Text: fmt.Sprintf("with LINEORDER%s by %s assess revenue against %s using ratio(revenue, benchmark.revenue) labels %s",
			forClause(preds...), by, eq(level, sibling), labels),
	}
}

// pastStmt pins a month and benchmarks against the regression over the k
// previous ones; by must contain month.
func pastStmt(m members, by string, preds ...string) statement {
	k := 3 + m.rng.Intn(4)
	labels, set := ranges(m.rng, "0", 0.9, 1.1, [3]string{"worse", "fine", "better"})
	preds = append([]string{eq("month", m.month(k))}, preds...)
	return statement{
		Endpoint: "/assess", Kind: "past", Labels: set,
		Text: fmt.Sprintf("with LINEORDER%s by %s assess revenue against past %d using ratio(revenue, benchmark.revenue) labels %s",
			forClause(preds...), by, k, labels),
	}
}

// ancestorStmt benchmarks each cell against the cell it rolls up to at
// the coarser level of one of by's hierarchies.
func ancestorStmt(m members, ancestor, by string, preds ...string) statement {
	labels, set := ranges(m.rng, "0", 0.05, 0.25, [3]string{"minor", "typical", "major"})
	return statement{
		Endpoint: "/assess", Kind: "ancestor", Labels: set,
		Text: fmt.Sprintf("with LINEORDER%s by %s assess revenue against ancestor %s using ratio(revenue, benchmark.revenue) labels %s",
			forClause(preds...), by, ancestor, labels),
	}
}

func getStmt(by, measures string, preds ...string) statement {
	return statement{
		Endpoint: "/query", Kind: "get",
		Text: fmt.Sprintf("with LINEORDER%s by %s get %s", forClause(preds...), by, measures),
	}
}

// slot is a shape with the number of schedule slots it takes.
type slot struct {
	n     int
	shape shape
}

// schedule expands the slots into the cycle generate walks.
func schedule(slots ...slot) []shape {
	var out []shape
	for _, s := range slots {
		for i := 0; i < s.n; i++ {
			out = append(out, s.shape)
		}
	}
	return out
}

// intentionShapes is the schedule of the cold intention workloads: the
// paper's four intentions (templates of experiments.Intentions), four
// slots of sixteen each. Half of the slots keep the paper's customer-level
// group-by, whose large results make exec labelling and server encoding
// visible; the others use coarser levels where the fact scan dominates.
//
// A statement's cost is set by its shape, so latencies fall into one
// class per shape and a percentile that sits on the edge between two
// classes jumps from run to run. The slot counts place the median in the
// middle of the external ccity × year class and the 95th percentile in
// the middle of the unsliced customer × year Constant (see README.md,
// "Statement schedules").
var intentionShapes = schedule(
	slot{2, func(m members) statement { return constantStmt(m, "customer, year") }},
	slot{2, func(m members) statement { return constantStmt(m, "brand, year") }},
	slot{2, func(m members) statement { return externalStmt(m, "customer, year", eq("cregion", m.pick("cregion"))) }},
	slot{2, func(m members) statement { return externalStmt(m, "ccity, year", eq("sregion", m.pick("sregion"))) }},
	slot{3, func(m members) statement { return siblingStmt(m, "year", "customer, year") }},
	slot{1, func(m members) statement { return siblingStmt(m, "year", "brand, year") }},
	slot{3, func(m members) statement { return pastStmt(m, "month, supplier") }},
	slot{1, func(m members) statement { return pastStmt(m, "month, cnation", eq("category", m.pick("category"))) }},
)

// selectiveShapes is the schedule of cold_segment: every statement
// slices on month, brand or ccity without grouping by it (so the store
// may evaluate the predicate in code space and never decode the column)
// and returns a small cube. Month slicers prune to one segment of the
// date-sorted store, brand and ccity slicers filter every segment. The
// slot counts keep the median inside the brand-sliced Constant class and
// the 95th percentile inside the brand-sliced ancestor class.
var selectiveShapes = schedule(
	slot{1, func(m members) statement { return constantStmt(m, "cnation", eq("month", m.pick("month"))) }},
	slot{1, func(m members) statement {
		return constantStmt(m, "snation", eq("month", m.pick("month")), eq("brand", m.pick("brand")))
	}},
	slot{1, func(m members) statement {
		return siblingStmt(m, "cregion", "cregion, category", eq("month", m.pick("month")))
	}},
	slot{2, func(m members) statement { return ancestorStmt(m, "cregion", "cnation", eq("month", m.pick("month"))) }},
	slot{2, func(m members) statement { return siblingStmt(m, "year", "year, mfgr", eq("ccity", m.pick("ccity"))) }},
	slot{3, func(m members) statement { return constantStmt(m, "year, sregion", eq("brand", m.pick("brand"))) }},
	slot{3, func(m members) statement { return constantStmt(m, "category, year", eq("ccity", m.pick("ccity"))) }},
	slot{3, func(m members) statement {
		return ancestorStmt(m, "sregion", "snation, year", eq("brand", m.pick("brand")))
	}},
)

// generate fills n slots from the schedule (slot i takes shape i mod
// len(shapes)), then shuffles. Statements are distinct: a collision is
// redrawn, so the result cache can never serve a cold workload.
func generate(schema *mdm.Schema, seed int64, shapes []shape, n int) []statement {
	m := members{schema: schema, rng: rand.New(rand.NewSource(seed))}
	seen := make(map[string]bool, n)
	out := make([]statement, 0, n)
	for i := 0; i < n; i++ {
		st := shapes[i%len(shapes)](m)
		for seen[st.Text] {
			st = shapes[i%len(shapes)](m)
		}
		seen[st.Text] = true
		out = append(out, st)
	}
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tileViews are the group-by sets the dashboard deployments materialize:
// one view per distinct tile group-by.
var tileViews = map[string][][]string{
	"LINEORDER": {
		{"customer", "year"}, {"cnation", "year"}, {"month", "cregion"}, {"brand", "year"},
		{"category", "sregion"}, {"month", "snation"}, {"ccity", "year"}, {"scity", "mfgr"},
	},
	"LINEORDER_BUDGET": {{"category", "sregion"}, {"scity", "mfgr"}},
}

// tiles builds the fixed dashboard of 24 tiles: all five benchmark
// kinds, three plain get queries, and one customer × year tile whose
// result exceeds the result cache's per-shard slice and is therefore
// recomputed from its view on every request.
func tiles(schema *mdm.Schema, seed int64) []statement {
	m := members{schema: schema, rng: rand.New(rand.NewSource(seed))}
	return []statement{
		constantStmt(m, "customer, year"),
		constantStmt(m, "cnation, year"),
		siblingStmt(m, "year", "cnation, year"),
		ancestorStmt(m, "cregion", "cnation, year"),
		getStmt("cnation, year", "revenue, quantity"),
		pastStmt(m, "month, cregion"),
		constantStmt(m, "month, cregion", eq("year", m.pick("year"))),
		siblingStmt(m, "year", "brand, year", eq("mfgr", m.pick("mfgr"))),
		constantStmt(m, "brand, year", eq("category", m.pick("category"))),
		ancestorStmt(m, "category", "brand, year", eq("year", m.pick("year"))),
		externalStmt(m, "category, sregion"),
		ancestorStmt(m, "mfgr", "category, sregion"),
		getStmt("category, sregion", "revenue, supplycost"),
		pastStmt(m, "month, snation", eq("sregion", m.pick("sregion"))),
		getStmt("month, snation", "quantity", eq("year", m.pick("year"))),
		constantStmt(m, "month, snation", eq("snation", m.pick("snation"))),
		siblingStmt(m, "year", "ccity, year", eq("cnation", m.pick("cnation"))),
		constantStmt(m, "ccity, year", eq("cregion", m.pick("cregion"))),
		ancestorStmt(m, "cnation", "ccity, year", eq("year", m.pick("year"))),
		ancestorStmt(m, "cnation", "customer, year"),
		externalStmt(m, "scity, mfgr", eq("sregion", m.pick("sregion"))),
		siblingStmt(m, "mfgr", "scity, mfgr"),
		constantStmt(m, "cregion, year"),
		pastStmt(m, "month, cregion", eq("cregion", m.pick("cregion"))),
	}
}

// replay is n requests over the tile set: whole passes, each a fresh
// seeded permutation, so every tile is requested equally often and no
// tile is tied to a position in the stream.
func replay(tileSet []statement, seed int64, n int) []statement {
	rng := rand.New(rand.NewSource(seed ^ 0x7469_6c65))
	out := make([]statement, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(tileSet)) {
			if len(out) < n {
				out = append(out, tileSet[i])
			}
		}
	}
	return out
}
