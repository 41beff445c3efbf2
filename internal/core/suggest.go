package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/parser"
)

// Statement completion (the paper's future work, Section 8: "devise
// strategies for effectively completing partial assess statements, for
// instance, ones where the against, using or [labels] clauses are not
// specified … different possibilities [are] tested and ranked based on
// their expected interest for the user"). Suggest enumerates plausible
// completions of the missing clauses, executes each candidate, and ranks
// them by the Shannon entropy of the resulting label distribution — a
// flat labeling carries no information, a balanced one is maximally
// discriminating.

// Suggestion is one ranked statement completion.
type Suggestion struct {
	// Statement is the completed, executable statement.
	Statement string
	// Score is the expected interest: the entropy of the label
	// distribution (bits), with null labels penalized.
	Score float64
	// Note says what was completed.
	Note string
	// Cells is the result cardinality of the candidate.
	Cells int
}

// maximum sibling members tried per sliced level: the nearest ones.
const maxSiblingCandidates = 4

// Suggest completes a partial statement (missing against, using, and/or
// labels clauses) and returns up to max candidates ranked by expected
// interest. A statement that is already complete is executed and
// returned as the single suggestion.
func (s *Session) Suggest(partialStmt string, max int) ([]Suggestion, error) {
	if max < 1 {
		max = 3
	}
	st, err := parser.ParsePartial(partialStmt)
	if err != nil {
		return nil, err
	}
	fact, ok := s.Engine.Fact(st.Cube)
	if !ok {
		return nil, fmt.Errorf("assess: unknown cube %q", st.Cube)
	}

	candidates := []*parser.Statement{st}
	var notes = map[*parser.Statement]string{st: "as written"}

	if st.Against == nil {
		var expanded []*parser.Statement
		newNotes := map[*parser.Statement]string{}
		for _, c := range candidates {
			for _, b := range s.benchmarkCandidates(fact.Schema, c) {
				cc := *c
				cc.Against = b.bench
				expanded = append(expanded, &cc)
				newNotes[&cc] = join(notes[c], b.note)
			}
			// Keep the absolute assessment (no benchmark) as a candidate.
			expanded = append(expanded, c)
			newNotes[c] = notes[c]
		}
		candidates, notes = expanded, newNotes
	}
	if !st.HasLabels() {
		var expanded []*parser.Statement
		newNotes := map[*parser.Statement]string{}
		for _, c := range candidates {
			for _, l := range labelCandidates(c) {
				cc := *c
				cc.Labels = l.labels
				expanded = append(expanded, &cc)
				newNotes[&cc] = join(notes[c], l.note)
			}
		}
		candidates, notes = expanded, newNotes
	}

	var out []Suggestion
	for _, c := range candidates {
		stmt := c.Render()
		res, err := s.Exec(stmt)
		if err != nil || res.Cube.Len() == 0 {
			continue // an infeasible completion is silently dropped
		}
		out = append(out, Suggestion{
			Statement: stmt,
			Score:     labelEntropy(res.Cube.Labels),
			Note:      notes[c],
			Cells:     res.Cube.Len(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if len(out) > max {
		out = out[:max]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("assess: no executable completion found for the partial statement")
	}
	return out, nil
}

func join(a, b string) string {
	if a == "as written" || a == "" {
		return b
	}
	return a + "; " + b
}

type benchCandidate struct {
	bench *parser.Benchmark
	note  string
}

// benchmarkCandidates proposes against clauses: the sibling members
// nearest every single-member slice on a by-level, a past-3 benchmark
// when the sliced level has predecessors, and the roll-up ancestor of
// every grouped non-top level.
func (s *Session) benchmarkCandidates(schema *mdm.Schema, st *parser.Statement) []benchCandidate {
	var out []benchCandidate
	group, err := mdm.NewGroupBy(schema, st.By...)
	if err != nil {
		return nil
	}
	for _, pred := range st.For {
		if len(pred.Values) != 1 {
			continue
		}
		ref, ok := schema.FindLevel(pred.Level)
		if !ok || !group.Contains(ref) {
			continue
		}
		names := schema.Dict(ref).SortedNames()
		pos := sort.SearchStrings(names, pred.Values[0])
		found := pos < len(names) && names[pos] == pred.Values[0]
		for _, member := range nearest(names, pos, found, maxSiblingCandidates) {
			out = append(out, benchCandidate{
				bench: &parser.Benchmark{Kind: parser.BenchSibling, Level: pred.Level, Member: member},
				note:  fmt.Sprintf("against sibling %s = '%s'", pred.Level, member),
			})
		}
		// Past candidate: the sliced member has lexicographic predecessors.
		if pos > 0 && found {
			out = append(out, benchCandidate{
				bench: &parser.Benchmark{Kind: parser.BenchPast, K: 3},
				note:  "against past 3",
			})
		}
	}
	// Ancestor candidates: the next-coarser level of every grouped level.
	for _, ref := range group {
		h := schema.Hiers[ref.Hier]
		if ref.Level+1 < h.Depth() {
			anc := h.Levels()[ref.Level+1]
			out = append(out, benchCandidate{
				bench: &parser.Benchmark{Kind: parser.BenchAncestor, Level: anc},
				note:  "against ancestor " + anc,
			})
		}
	}
	return out
}

// nearest returns up to k members of the sorted names nearest position
// pos, alternating before and after it: for 1997 among the years, 1996,
// 1998, 1995, 1999. The member at pos is the sliced one when found.
func nearest(names []string, pos int, found bool, k int) []string {
	var out []string
	before, after := pos-1, pos
	if found {
		after++
	}
	for len(out) < k && (before >= 0 || after < len(names)) {
		if before >= 0 {
			out = append(out, names[before])
			before--
		}
		if after < len(names) && len(out) < k {
			out = append(out, names[after])
			after++
		}
	}
	return out
}

// labelEntropy scores a labeling: the Shannon entropy of the non-null
// label distribution, scaled by the fraction of cells that received a
// real label (null labels carry no assessment information, so a
// null-heavy result scores below an equally balanced fully-labeled one).
// Cells are counted by code, and codes by the name they read as.
func labelEntropy(labels *labeling.Column) float64 {
	if labels == nil || len(labels.Codes) == 0 {
		return 0
	}
	var byCode [256]int
	for _, c := range labels.Codes {
		byCode[c]++
	}
	counts := map[string]int{}
	var names []string // in code order, so that the sum is too
	labeled := 0
	for code, n := range byCode {
		if n == 0 || labels.Names[code] == labeling.NullLabel {
			continue
		}
		name := labels.Names[code]
		if counts[name] == 0 {
			names = append(names, name)
		}
		counts[name] += n
		labeled += n
	}
	if labeled == 0 {
		return 0
	}
	var h float64
	for _, name := range names {
		p := float64(counts[name]) / float64(labeled)
		h -= p * math.Log2(p)
	}
	return h * float64(labeled) / float64(len(labels.Codes))
}

type labelCandidate struct {
	labels parser.Labels
	note   string
}

// labelCandidates proposes labels clauses: quartiles always; ratio bands
// when the comparison is a ratio; difference signs when it is a
// difference.
func labelCandidates(st *parser.Statement) []labelCandidate {
	out := []labelCandidate{{
		labels: parser.Labels{Named: "quartiles"},
		note:   "labels quartiles",
	}}
	name := ""
	if st.Using != nil {
		name = st.Using.Name
	}
	switch {
	case name == "ratio" || (st.Using == nil && st.Against != nil && st.Against.Kind == parser.BenchPast):
		out = append(out, labelCandidate{
			labels: parser.Labels{Ranges: []parser.Range{
				{Lo: 0, Hi: 0.9, HiOpen: true, Label: "worse"},
				{Lo: 0.9, Hi: 1.1, Label: "fine"},
				{Lo: 1.1, Hi: math.Inf(1), LoOpen: true, HiOpen: true, Label: "better"},
			}},
			note: "labels ratio bands",
		})
	case name == "difference" || name == "normDifference":
		out = append(out, labelCandidate{
			labels: parser.Labels{Ranges: []parser.Range{
				{Lo: math.Inf(-1), Hi: 0, LoOpen: true, HiOpen: true, Label: "down"},
				{Lo: 0, Hi: math.Inf(1), HiOpen: true, Label: "up"},
			}},
			note: "labels sign bands",
		})
	}
	return out
}
