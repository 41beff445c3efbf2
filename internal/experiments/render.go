package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/assess-olap/assess/internal/plan"
)

// RenderTable1 formats the formulation-effort rows like the paper's
// Table 1 (columns per intention).
func RenderTable1(rows []EffortRow) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Formulation effort (ASCII characters)\n")
	fmt.Fprintf(&sb, "%-8s", "")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%12s", r.Intention)
	}
	sb.WriteByte('\n')
	line := func(name string, pick func(EffortRow) int) {
		fmt.Fprintf(&sb, "%-8s", name+":")
		for _, r := range rows {
			fmt.Fprintf(&sb, "%12d", pick(r))
		}
		sb.WriteByte('\n')
	}
	line("SQL", func(r EffortRow) int { return r.SQL })
	line("Python", func(r EffortRow) int { return r.Python })
	line("Total", func(r EffortRow) int { return r.Total })
	line("assess", func(r EffortRow) int { return r.Assess })
	return sb.String()
}

// RenderTable2 formats the cardinality rows like the paper's Table 2.
func RenderTable2(rows []CardinalityRow, scales []Scale) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Target cube cardinalities |C|\n")
	fmt.Fprintf(&sb, "%-10s", "")
	for _, sc := range scales {
		fmt.Fprintf(&sb, "%12s", sc.Label)
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s", r.Intention)
		for _, n := range r.Cells {
			fmt.Fprintf(&sb, "%12.1e", float64(n))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderTable3 formats the minimum-execution-time rows like the paper's
// Table 3: best time with the NP time in parentheses.
func RenderTable3(rows []MinRow, scales []Scale) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Minimum execution times in seconds (NP times in parentheses)\n")
	fmt.Fprintf(&sb, "%-10s", "")
	for _, sc := range scales {
		fmt.Fprintf(&sb, "%22s", sc.Label)
	}
	sb.WriteByte('\n')
	for _, in := range Intentions() {
		fmt.Fprintf(&sb, "%-10s", in.Name)
		for _, sc := range scales {
			for _, r := range rows {
				if r.Intention == in.Name && r.Scale == sc.Label {
					fmt.Fprintf(&sb, "%12.3f (%6.3f)", r.Best, r.NPTime)
				}
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderFig3 formats the plan-time matrix as the series behind Figure 3:
// one block per intention and scale, one line per plan with its median
// and quartiles in milliseconds and the rounds it won (was fastest in).
// The fastest plan by median is marked; another plan whose quartiles
// overlap the fastest's is "unresolved", the rounds cannot order the two.
func RenderFig3(timings []Timing, scales []Scale) string {
	var sb strings.Builder
	sb.WriteString("Figure 3: Execution times (ms) for increasing cardinalities of C: median [q1–q3], rounds won\n")
	for _, in := range Intentions() {
		for _, sc := range scales {
			var row []Timing
			for _, tm := range timings {
				if tm.Intention == in.Name && tm.Scale == sc.Label {
					row = append(row, tm)
				}
			}
			if len(row) == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%s %s\n", in.Name, sc.Label)
			best := slices.MinFunc(row, func(a, b Timing) int { return cmp.Compare(a.Seconds, b.Seconds) })
			for _, tm := range row {
				wins := 0
				for r, v := range tm.Rounds {
					if !slices.ContainsFunc(row, func(o Timing) bool { return o.Rounds[r] < v }) {
						wins++
					}
				}
				q1, q3 := quantile(tm.Rounds, 0.25), quantile(tm.Rounds, 0.75)
				verdict := ""
				switch {
				case tm.Strategy == best.Strategy && len(row) > 1:
					verdict = "  fastest"
				case tm.Strategy != best.Strategy && q1 <= quantile(best.Rounds, 0.75):
					verdict = "  unresolved"
				}
				fmt.Fprintf(&sb, "  %-4v %9.3f [%.3f–%.3f]  wins %d of %d%s\n",
					tm.Strategy, 1e3*tm.Seconds, 1e3*q1, 1e3*q3, wins, len(tm.Rounds), verdict)
			}
		}
	}
	return sb.String()
}

// RenderFig4 formats the Past-intention breakdown like Figure 4: one
// block per plan, one line per phase, one column per scale.
func RenderFig4(timings []Timing, scales []Scale) string {
	past := PastBreakdowns(timings)
	var sb strings.Builder
	sb.WriteString("Figure 4: Breakdown of the Past intention (seconds)\n")
	for _, strat := range plan.Strategies() {
		fmt.Fprintf(&sb, "%v\n", strat)
		for ph := plan.Phase(0); ph < plan.NumPhases; ph++ {
			var vals []string
			nonzero := false
			for _, sc := range scales {
				for _, tm := range past {
					if tm.Scale == sc.Label && tm.Strategy == strat {
						s := tm.Breakdown[ph].Seconds()
						if s > 0 {
							nonzero = true
						}
						vals = append(vals, fmt.Sprintf("%12.4f", s))
					}
				}
			}
			if !nonzero {
				continue
			}
			fmt.Fprintf(&sb, "  %-8s%s\n", ph, strings.Join(vals, ""))
		}
	}
	return sb.String()
}
