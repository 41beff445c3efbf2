// Package sqlgen generates, for an assess plan, the SQL statements and
// the client-side post-processing program a user would have to write by
// hand to obtain the same result without the assess operator. It is the
// basis of the formulation-effort experiment (Table 1 of the paper),
// which compares the ASCII character length of the generated SQL + Python
// against the length of the assess statement itself, following the
// effort metric of Jain et al. (SQLShare, SIGMOD 2016).
//
// The SQL targets a conventional star schema: one fact table named after
// the cube plus one dimension table per hierarchy, joined on surrogate
// keys, which is how the paper's prototype rewrites cube queries over
// Oracle (Listing 1, Listing 4, Listing 5).
package sqlgen

import (
	"fmt"
	"slices"
	"strings"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/semantic"
)

// Generated is the hand-written equivalent of one assess statement.
type Generated struct {
	SQL    string // the SQL pushed to the DBMS by the plan
	Python string // the client-side post-processing program
}

// Effort is the ASCII character length of both parts (the metric of
// Table 1).
func (g Generated) Effort() (sql, python, total int) {
	sql, python = len(g.SQL), len(g.Python)
	return sql, python, sql + python
}

// Generate renders the SQL and client program for a plan.
func Generate(p *plan.Plan) Generated {
	g := &generator{b: p.Bound, used: make(map[string]bool)}
	for i := range p.Ops {
		g.op(&p.Ops[i], p)
	}
	return Generated{
		SQL:    strings.TrimRight(g.sql.String(), "\n"),
		Python: preamble + g.defs() + strings.TrimRight(g.py.String(), "\n") + "\n" + epilogue(p),
	}
}

// preamble is the boilerplate any hand-written client program needs:
// imports, connection setup with error handling, and a cursor-to-frame
// fetch helper (mirroring the prototype's Oracle + Pandas stack).
const preamble = `import os
import sys
import pandas as pd
import numpy as np
import cx_Oracle
from sklearn.linear_model import LinearRegression

ORACLE_DSN = cx_Oracle.makedsn(
    os.environ.get("DWH_HOST", "dwh.example.com"),
    int(os.environ.get("DWH_PORT", "1521")),
    service_name=os.environ.get("DWH_SERVICE", "DWH"))

def connect():
    try:
        return cx_Oracle.connect(
            user=os.environ.get("DWH_USER", "analyst"),
            password=os.environ["DWH_PASSWORD"],
            dsn=ORACLE_DSN)
    except (KeyError, cx_Oracle.DatabaseError) as exc:
        print("cannot connect to the data warehouse:", exc, file=sys.stderr)
        sys.exit(1)

conn = connect()

def fetch(sql):
    cur = conn.cursor()
    try:
        cur.execute(sql)
        cols = [d[0].lower() for d in cur.description]
        frame = pd.DataFrame(cur.fetchall(), columns=cols)
    finally:
        cur.close()
    # cx_Oracle returns NUMBER columns as Decimal: coerce to float64.
    for col in frame.columns:
        if frame[col].dtype == object:
            coerced = pd.to_numeric(frame[col], errors="ignore")
            frame[col] = coerced
    return frame

`

// defLibrary holds the helper functions a user writes by hand (the
// paper's Listings 2 and 3 show difference, minmaxnorm, and 5stars
// written exactly this way); only the ones a statement actually uses are
// counted in its formulation effort.
var defLibrary = map[string]string{
	"difference": `def difference(a, b):
    return a - b
`,
	"absdifference": `def absdifference(a, b):
    return (a - b).abs()
`,
	"ratio": `def ratio(a, b):
    return a / b
`,
	"percentage": `def percentage(a, b):
    return 100 * a / b
`,
	"normdifference": `def normdifference(a, b):
    return (a - b) / b
`,
	"identity": `def identity(a):
    return a
`,
	"minmaxnorm": `def minmaxnorm(a):
    minv = a.min()
    maxv = a.max()
    if maxv == minv:
        return a * 0.0
    return (a - minv) / (maxv - minv)
`,
	"zscore": `def zscore(a):
    sd = a.std(ddof=0)
    if sd == 0:
        return a * 0.0
    return (a - a.mean()) / sd
`,
	"percoftotal": `def percoftotal(a, b):
    return a / b.sum()
`,
	"rank": `def rank(a):
    return a.rank(ascending=False)
`,
	"regression": `def regression(series):
    xs = np.arange(1, len(series) + 1).reshape(-1, 1)
    mask = ~np.isnan(series.values.astype(float))
    if mask.sum() == 0:
        return float("nan")
    model = LinearRegression()
    model.fit(xs[mask], series.values[mask])
    return float(model.predict([[len(series) + 1]])[0])

def predict_next(frame, columns):
    return frame[columns].apply(regression, axis=1)
`,
	"rangelabel": `def range_label(a, bins, labels):
    return pd.cut(a, bins, include_lowest=True, labels=labels)
`,
	"quantilelabel": `def quantile_label(a, k):
    ranks = a.rank(method="first", ascending=False)
    labels = ["top-%d" % (i + 1) for i in range(k)]
    return pd.qcut(ranks, k, labels=labels)
`,
	"pivotslices": `def pivot_slices(frame, level, keys, measures):
    wide = frame.pivot_table(index=keys, columns=level, values=measures, aggfunc="first")
    wide.columns = ["%s_%s" % (m, s) for m, s in wide.columns]
    return wide.reset_index()
`,
}

func epilogue(p *plan.Plan) string {
	return fmt.Sprintf("result = %s\nprint(result.to_string())\nconn.close()", p.Result)
}

type generator struct {
	b    *semantic.Bound
	sql  strings.Builder
	py   strings.Builder
	used map[string]bool // helper defs the program needs
	n    int             // SQL statement counter
}

// defs renders the helper definitions the statement uses, in stable
// order.
func (g *generator) defs() string {
	names := make([]string, 0, len(g.used))
	for n := range g.used {
		if _, ok := defLibrary[n]; ok {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(defLibrary[n])
		sb.WriteByte('\n')
	}
	return sb.String()
}

// op renders one plan operation: a pushed op as the SQL statement the
// client fetches, any other as client-side Pandas.
func (g *generator) op(op *plan.Op, p *plan.Plan) {
	if op.Pushed() {
		var sql string
		switch op.Kind {
		case plan.OpGet:
			var extra []mdm.LevelRef
			if g.b.Bench.Kind == parser.BenchAncestor && op.Query.Group.Equal(g.b.Group) {
				// The hand-written target query carries the ancestor level so
				// the client can merge on it.
				extra = []mdm.LevelRef{g.b.Bench.AncestorLevel}
			}
			sql = g.selectFor(op.Query, extra)
		case plan.OpJoin, plan.OpMultiply:
			sql = g.joinSQL(op)
		case plan.OpRollupJoin:
			sql = g.rollupJoinSQL(op)
		case plan.OpPivot:
			sql = g.pivotSQL(op)
		}
		fmt.Fprintf(&g.py, "%s = fetch(%s)\n", op.Dst, g.pushSQL(sql))
		return
	}
	switch op.Kind {
	case plan.OpJoin, plan.OpRollupJoin:
		on := g.levelList(op.On)
		if op.Kind == plan.OpRollupJoin {
			on = g.rollupJoinLevels()
		}
		how := "inner"
		if op.Outer {
			how = "left"
		}
		fmt.Fprintf(&g.py, "%s = %s.merge(%s, on=[%s], how=%q, suffixes=('', '_bc'))\n",
			op.Dst, op.SrcA, op.SrcB, on, how)
	case plan.OpPivot:
		g.used["pivotslices"] = true
		lvl := g.b.Schema.LevelName(op.Level)
		var keys []string
		for _, ref := range g.b.Group {
			if ref != op.Level {
				keys = append(keys, fmt.Sprintf("%q", g.b.Schema.LevelName(ref)))
			}
		}
		fmt.Fprintf(&g.py, "%s = pivot_slices(%s, %q, [%s], [c for c in %s.columns if c not in [%s, %q]])\n",
			op.Dst, op.SrcA, lvl, strings.Join(keys, ", "), op.SrcA, strings.Join(keys, ", "), lvl)
		if op.Strict {
			fmt.Fprintf(&g.py, "%s = %s.dropna()\n", op.Dst, op.Dst)
		}
	case plan.OpProject:
		cols := make([]string, len(op.ProjKeep))
		for i, c := range op.ProjKeep {
			out := c
			if nn, ok := op.ProjRename[c]; ok {
				out = nn
			}
			cols[i] = fmt.Sprintf("%q: %s[%q]", out, op.SrcA, c)
		}
		fmt.Fprintf(&g.py, "%s = pd.DataFrame({%s})\n", op.Dst, strings.Join(cols, ", "))
	case plan.OpReplaceSlice:
		lvl := g.b.Schema.LevelName(op.Level)
		fmt.Fprintf(&g.py, "%s[%q] = %q\n", op.Dst, lvl, g.b.Schema.Dict(op.Level).Name(op.Ref))
	case plan.OpTransform:
		fmt.Fprintf(&g.py, "%s[%q] = %s\n", op.Dst, op.OutCol, g.pyExpr(op.Expr, op.Dst))
	case plan.OpLabel:
		g.pyLabel(op, p)
	}
}

// pushSQL appends one SQL statement and returns the Python constant name
// bound to it.
func (g *generator) pushSQL(sql string) string {
	g.n++
	name := fmt.Sprintf("SQL_%d", g.n)
	fmt.Fprintf(&g.sql, "-- %s\n%s;\n\n", name, sql)
	fmt.Fprintf(&g.py, "%s = \"\"\"%s\"\"\"\n", name, sql)
	return name
}

// dimAlias returns the alias of the dimension table of hierarchy h.
func dimAlias(s *mdm.Schema, h int) string {
	return strings.ToLower(s.Hiers[h].Name())
}

// selectFor renders the star-join SELECT of a cube query (Listing 1).
// extraLevels adds dimension levels to the projection and group-by
// (functionally dependent columns a hand-written query carries along,
// e.g. the ancestor level of a roll-up join).
func (g *generator) selectFor(q engine.Query, extraLevels []mdm.LevelRef) string {
	s := g.schemaOf(q)
	var cols, groups []string
	usedDims := map[int]bool{}
	for _, ref := range append(append([]mdm.LevelRef(nil), q.Group...), extraLevels...) {
		lvl := s.LevelName(ref)
		col := fmt.Sprintf("%s.%s", dimAlias(s, ref.Hier), lvl)
		cols = append(cols, col)
		groups = append(groups, col)
		usedDims[ref.Hier] = true
	}
	for _, mi := range q.Measures {
		m := s.Measures[mi]
		cols = append(cols, fmt.Sprintf("%s(f.%s) as %s", m.Op, m.Name, m.Name))
	}
	var where []string
	for _, p := range q.Preds {
		usedDims[p.Level.Hier] = true
		lvl := s.LevelName(p.Level)
		col := fmt.Sprintf("%s.%s", dimAlias(s, p.Level.Hier), lvl)
		if len(p.Members) == 1 {
			where = append(where, fmt.Sprintf("%s = '%s'", col, s.Dict(p.Level).Name(p.Members[0])))
		} else {
			names := make([]string, len(p.Members))
			for i, m := range p.Members {
				names[i] = "'" + s.Dict(p.Level).Name(m) + "'"
			}
			where = append(where, fmt.Sprintf("%s in (%s)", col, strings.Join(names, ", ")))
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "select %s\nfrom %s f", strings.Join(cols, ", "), strings.ToLower(q.Fact))
	for h := range s.Hiers {
		if usedDims[h] {
			d := dimAlias(s, h)
			fmt.Fprintf(&sb, "\n  join %s %s on %s.%skey = f.%skey", d, d, d, d, d)
		}
	}
	if len(where) > 0 {
		fmt.Fprintf(&sb, "\nwhere %s", strings.Join(where, " and "))
	}
	if len(groups) > 0 {
		fmt.Fprintf(&sb, "\ngroup by %s", strings.Join(groups, ", "))
	}
	return sb.String()
}

func (g *generator) schemaOf(q engine.Query) *mdm.Schema {
	if g.b.Bench.ExtSchema != nil && q.Fact == g.b.Bench.ExtFact {
		return g.b.Bench.ExtSchema
	}
	return g.b.Schema
}

// joinSQL renders the pushed join of a JOP plan (Listing 4): two inner
// subqueries joined in the outer query.
func (g *generator) joinSQL(op *plan.Op) string {
	s := g.b.Schema
	onCols := make([]string, len(op.On))
	for i, ref := range op.On {
		onCols[i] = s.LevelName(ref)
	}
	if op.Kind == plan.OpMultiply {
		onCols = nil
		for _, ref := range g.b.Group {
			if ref != op.Level {
				onCols = append(onCols, s.LevelName(ref))
			}
		}
	}
	var t1Cols []string
	for _, ref := range op.Query.Group {
		t1Cols = append(t1Cols, "t1."+s.LevelName(ref))
	}
	for _, mi := range op.Query.Measures {
		t1Cols = append(t1Cols, "t1."+s.Measures[mi].Name)
	}
	bs := g.schemaOf(op.QueryB)
	for _, mi := range op.QueryB.Measures {
		m := bs.Measures[mi].Name
		t1Cols = append(t1Cols, fmt.Sprintf("t2.%s as bc_%s", m, m))
	}
	joinKind := "join"
	if op.Outer {
		joinKind = "left join"
	}
	var conds []string
	for _, c := range onCols {
		conds = append(conds, fmt.Sprintf("t1.%s = t2.%s", c, c))
	}
	return fmt.Sprintf("select %s\nfrom\n(%s) t1\n%s\n(%s) t2\n  on %s",
		strings.Join(t1Cols, ", "),
		indent(g.selectFor(op.Query, nil)),
		joinKind,
		indent(g.selectFor(op.QueryB, nil)),
		strings.Join(conds, " and "))
}

// rollupJoinLevels lists the merge keys of an ancestor benchmark: the
// ancestor level plus the target's other group-by levels.
func (g *generator) rollupJoinLevels() string {
	refs := []mdm.LevelRef{g.b.Bench.AncestorLevel}
	for _, ref := range g.b.Group {
		if ref != g.b.Bench.ChildLevel {
			refs = append(refs, ref)
		}
	}
	return g.levelList(refs)
}

// rollupJoinSQL renders the pushed roll-up join of a JOP ancestor plan:
// the target subquery carries the ancestor level and joins the coarser
// benchmark subquery on it.
func (g *generator) rollupJoinSQL(op *plan.Op) string {
	s := g.b.Schema
	anc := g.b.Bench.AncestorLevel
	var t1Cols []string
	for _, ref := range op.Query.Group {
		t1Cols = append(t1Cols, "t1."+s.LevelName(ref))
	}
	for _, mi := range op.Query.Measures {
		t1Cols = append(t1Cols, "t1."+s.Measures[mi].Name)
	}
	for _, mi := range op.QueryB.Measures {
		m := s.Measures[mi].Name
		t1Cols = append(t1Cols, fmt.Sprintf("t2.%s as bc_%s", m, m))
	}
	joinKind := "join"
	if op.Outer {
		joinKind = "left join"
	}
	conds := []string{fmt.Sprintf("t1.%s = t2.%s", s.LevelName(anc), s.LevelName(anc))}
	for _, ref := range g.b.Group {
		if ref != g.b.Bench.ChildLevel {
			lvl := s.LevelName(ref)
			conds = append(conds, fmt.Sprintf("t1.%s = t2.%s", lvl, lvl))
		}
	}
	return fmt.Sprintf("select %s\nfrom\n(%s) t1\n%s\n(%s) t2\n  on %s",
		strings.Join(t1Cols, ", "),
		indent(g.selectFor(op.Query, []mdm.LevelRef{anc})),
		joinKind,
		indent(g.selectFor(op.QueryB, nil)),
		strings.Join(conds, " and "))
}

// pivotSQL renders the pushed pivot of a POP plan (Listing 5).
func (g *generator) pivotSQL(op *plan.Op) string {
	s := g.b.Schema
	lvl := s.LevelName(op.Level)
	dict := s.Dict(op.Level)
	m := g.b.MeasureName()
	inner := g.selectFor(op.Query, nil)
	var cases []string
	cases = append(cases, fmt.Sprintf("'%s' as %s", dict.Name(op.Ref), m))
	for _, id := range op.Neighbors {
		cases = append(cases, fmt.Sprintf("'%s' as %s_%s", dict.Name(id), m, sanitize(dict.Name(id))))
	}
	notNull := ""
	if op.Strict {
		var conds []string
		conds = append(conds, m+" is not null")
		for _, id := range op.Neighbors {
			conds = append(conds, fmt.Sprintf("%s_%s is not null", m, sanitize(dict.Name(id))))
		}
		notNull = "\nwhere " + strings.Join(conds, " and ")
	}
	return fmt.Sprintf("select *\nfrom\n(%s)\npivot (\n  sum(%s) for %s in (%s)\n)%s",
		indent(inner), m, lvl, strings.Join(cases, ", "), notNull)
}

func sanitize(member string) string {
	return strings.NewReplacer("-", "_", " ", "_", "#", "_").Replace(member)
}

func indent(s string) string {
	return strings.ReplaceAll(s, "\n", "\n  ")
}

// levelList renders a Python list literal of level names.
func (g *generator) levelList(refs []mdm.LevelRef) string {
	names := make([]string, len(refs))
	for i, ref := range refs {
		names[i] = fmt.Sprintf("%q", g.b.Schema.LevelName(ref))
	}
	return strings.Join(names, ", ")
}

// pyExpr renders a bound using-clause expression as a Pandas expression.
func (g *generator) pyExpr(e semantic.Expr, df string) string {
	switch e := e.(type) {
	case *semantic.NumberExpr:
		return fmt.Sprintf("%g", e.Value)
	case *semantic.ColumnExpr:
		return fmt.Sprintf("%s[%q]", df, pyColumn(e.Column))
	case *semantic.PropertyExpr:
		// Dimension attributes come along in the hand-written query.
		return fmt.Sprintf("%s[%q]", df, e.Name)
	case *semantic.CallExpr:
		name := strings.ToLower(e.Fn.Name)
		if name == "regression" || name == "movingaverage" || name == "lastvalue" {
			g.used["regression"] = true
			cols := make([]string, len(e.Args))
			for i, a := range e.Args {
				col, ok := a.(*semantic.ColumnExpr)
				if !ok {
					cols[i] = fmt.Sprintf("%q", "?")
					continue
				}
				cols[i] = fmt.Sprintf("%q", pyColumn(col.Column))
			}
			return fmt.Sprintf("predict_next(%s, [%s])", df, strings.Join(cols, ", "))
		}
		g.used[name] = true
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = g.pyExpr(a, df)
		}
		return fmt.Sprintf("%s(%s)", name, strings.Join(args, ", "))
	}
	return "None"
}

// pyColumn maps a cube column name to its DataFrame spelling.
func pyColumn(col string) string {
	col = strings.ReplaceAll(col, "benchmark.", "bc_")
	return strings.ReplaceAll(col, "@", "_")
}

// pyLabel renders the labeling step.
func (g *generator) pyLabel(op *plan.Op, p *plan.Plan) {
	df := op.Dst
	col := fmt.Sprintf("%s[%q]", df, op.LabelCol)
	switch l := p.Bound.Labeler.(type) {
	case *labeling.Ranges:
		g.used["rangelabel"] = true
		ivs := l.Intervals()
		var bins, labels []string
		bins = append(bins, pyBound(ivs[0].Lo))
		for _, iv := range ivs {
			bins = append(bins, pyBound(iv.Hi))
			labels = append(labels, fmt.Sprintf("%q", iv.Label))
		}
		fmt.Fprintf(&g.py, "%s[\"label\"] = range_label(%s, [%s], [%s])\n",
			df, col, strings.Join(bins, ", "), strings.Join(labels, ", "))
	default:
		g.used["quantilelabel"] = true
		fmt.Fprintf(&g.py, "%s[\"label\"] = quantile_label(%s, 4)\n", df, col)
	}
}

func pyBound(v float64) string {
	switch {
	case v > 1e308:
		return "float('inf')"
	case v < -1e308:
		return "float('-inf')"
	}
	return fmt.Sprintf("%g", v)
}
