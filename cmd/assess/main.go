// Command assess is an interactive shell (and one-shot runner) for
// assess statements over a built-in dataset: the paper's SALES working
// example or a Star Schema Benchmark cube.
//
// Usage:
//
//	assess [-data sales|figure1|ssb] [-rows 50000] [-sf 0.01] [-seed 42]
//	       [-load DIR] [-save DIR]
//	       [-plan best|np|jop|pop] [-explain] [statement]
//
// With a statement argument it runs once and prints the labeled result;
// without one it reads statements from stdin, terminated by a semicolon
// or a blank line. -save writes every cube of the session (and its
// declared labelers) to a directory of cube directories and exits; -load
// opens such a directory instead of generating a dataset.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	assess "github.com/assess-olap/assess"
)

func main() {
	var (
		data      = flag.String("data", "sales", "dataset: sales, figure1, or ssb")
		rows      = flag.Int("rows", 50_000, "fact rows for the sales dataset")
		sf        = flag.Float64("sf", 0.01, "scale factor for the ssb dataset")
		seed      = flag.Int64("seed", 42, "generator seed")
		planStr   = flag.String("plan", "best", "execution plan: best, np, jop, or pop")
		explain   = flag.Bool("explain", false, "print the plan instead of executing")
		timing    = flag.Bool("time", false, "print the execution-time breakdown")
		suggest   = flag.Int("suggest", 0, "complete a partial statement and print up to N ranked suggestions")
		load      = flag.String("load", "", "open the cubes of a directory saved with -save (or written by ssbgen -out-dir) instead of generating them")
		save      = flag.String("save", "", "save every cube of the session to a directory and exit")
		script    = flag.String("f", "", "execute the ';'-separated statements of a script file")
		highlight = flag.Bool("highlights", false, "print the anomalous cells (|z| ≥ 2) of each result")
	)
	flag.Parse()
	showHighlights = *highlight

	session, banner, err := openSession(*data, *rows, *sf, *seed, *load)
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		if err := saveSession(session, *save); err != nil {
			fatal(err)
		}
		return
	}

	if *script != "" {
		if err := runScript(session, *script, *planStr, *timing); err != nil {
			fatal(err)
		}
		return
	}
	if stmt := strings.TrimSpace(strings.Join(flag.Args(), " ")); stmt != "" {
		switch {
		case *suggest > 0:
			err = runSuggest(session, stmt, *suggest)
		default:
			err = runOne(session, stmt, *planStr, *explain, *timing)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println(banner)
	fmt.Println("Enter assess statements; terminate with ';' or a blank line. Ctrl-D exits.")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Print("assess> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		done := strings.HasSuffix(trimmed, ";") || (trimmed == "" && buf.Len() > 0)
		buf.WriteString(strings.TrimSuffix(line, ";"))
		buf.WriteByte('\n')
		if !done {
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if stmt != "" {
			if err := runOne(session, stmt, *planStr, *explain, *timing); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		prompt()
	}
}

func saveSession(s *assess.Session, dir string) error {
	if err := assess.SaveSession(dir, s); err != nil {
		return err
	}
	fmt.Printf("saved %s to %s\n", describeCubes(s), dir)
	return nil
}

// describeCubes lists the session's cubes with their row counts.
func describeCubes(s *assess.Session) string {
	names := s.Engine.Facts()
	sort.Strings(names)
	for i, name := range names {
		f, _ := s.Engine.Fact(name)
		names[i] = fmt.Sprintf("%s (%d rows)", name, f.Rows())
	}
	return "cubes " + strings.Join(names, ", ")
}

func openSession(data string, rows int, sf float64, seed int64, load string) (*assess.Session, string, error) {
	if load != "" {
		// Resident, so no store stays open behind the session.
		s, _, err := assess.OpenSession(load, true)
		if err != nil {
			return nil, "", err
		}
		return s, fmt.Sprintf("loaded %s from %s", describeCubes(s), load), nil
	}
	switch data {
	case "sales":
		s, ds, err := assess.NewSalesSession(rows, seed)
		if err != nil {
			return nil, "", err
		}
		return s, fmt.Sprintf("SALES dataset: %d fact rows; cubes SALES and SALES_TARGET", ds.Fact.Rows()), nil
	case "figure1":
		ds := assess.FigureOneDataset()
		s := assess.NewSession()
		if err := s.RegisterCube("SALES", ds.Fact); err != nil {
			return nil, "", err
		}
		return s, "Figure 1 miniature dataset; cube SALES", nil
	case "ssb":
		s, ds, err := assess.NewSSBSession(sf, seed)
		if err != nil {
			return nil, "", err
		}
		return s, fmt.Sprintf("SSB dataset: %d fact rows (SF %g); cubes LINEORDER and LINEORDER_BUDGET",
			ds.Fact.Rows(), sf), nil
	}
	return nil, "", fmt.Errorf("unknown dataset %q (want sales, figure1, or ssb)", data)
}

// showHighlights toggles printing anomalous cells after each result.
var showHighlights bool

// runScript executes every ';'-separated statement of a file in order
// (declarations included), stopping at the first error.
func runScript(s *assess.Session, path, planStr string, timing bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, stmt := range strings.Split(string(data), ";") {
		stmt = strings.TrimSpace(stripComments(stmt))
		if stmt == "" {
			continue
		}
		fmt.Printf("── %s\n", firstLine(stmt))
		if err := runOne(s, stmt, planStr, false, timing); err != nil {
			return fmt.Errorf("%s: %w", firstLine(stmt), err)
		}
		fmt.Println()
	}
	return nil
}

// stripComments removes lines starting with "--".
func stripComments(chunk string) string {
	lines := strings.Split(chunk, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "--") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

func firstLine(stmt string) string {
	if i := strings.IndexByte(stmt, '\n'); i >= 0 {
		return stmt[:i] + " …"
	}
	return stmt
}

func runSuggest(s *assess.Session, partial string, n int) error {
	sugs, err := s.Suggest(partial, n)
	if err != nil {
		return err
	}
	for i, sg := range sugs {
		fmt.Printf("%d. [interest %.3f, %d cells] %s\n   %s\n\n",
			i+1, sg.Score, sg.Cells, sg.Note, sg.Statement)
	}
	return nil
}

func runOne(s *assess.Session, stmt, planStr string, explain, timing bool) error {
	// Plain cube queries (the get operator) bypass the assess pipeline.
	if assess.IsGetStatement(stmt) {
		qr, err := s.Query(stmt)
		if err != nil {
			return err
		}
		fmt.Print(qr.Render())
		fmt.Printf("(%d cells, %v)\n", qr.Cube.Len(), qr.Total)
		return nil
	}
	prepare, run := s.Prepare, s.Exec
	if name := strings.ToLower(planStr); name != "best" && name != "" {
		strategy, ok := map[string]assess.Strategy{"np": assess.NP, "jop": assess.JOP, "pop": assess.POP}[name]
		if !ok {
			return fmt.Errorf("unknown plan %q (want best, np, jop, or pop)", planStr)
		}
		prepare = func(stmt string) (*assess.Plan, error) { return s.PrepareWith(stmt, strategy) }
		run = func(stmt string) (*assess.Result, error) { return s.ExecWith(stmt, strategy) }
	}
	if explain {
		p, err := prepare(stmt)
		if err != nil {
			return err
		}
		fmt.Print(p.Explain())
		return nil
	}
	res, err := run(stmt)
	if err != nil {
		return err
	}
	if res == nil {
		fmt.Println("declared.")
		return nil
	}
	out, err := res.Render()
	if err != nil {
		return err
	}
	fmt.Print(out)
	fmt.Printf("(%d cells, %v plan, %v)\n", res.Cube.Len(), res.Plan.Strategy, res.Total)
	if timing {
		fmt.Println("breakdown:", res.Breakdown.String())
		fmt.Print(res.ExplainAnalyze())
	}
	if showHighlights {
		hs, err := res.Highlights(2)
		if err != nil {
			return err
		}
		for _, h := range hs {
			fmt.Printf("highlight: %v comparison=%.4g (z=%+.2f) label=%s\n",
				h.Row.Coordinate, h.Row.Comparison, h.ZScore, h.Row.Label)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "assess:", err)
	os.Exit(1)
}
