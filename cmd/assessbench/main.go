// Command assessbench regenerates the tables and figures of the paper's
// evaluation (Section 6): Table 1 (formulation effort), Table 2
// (target-cube cardinalities), Table 3 (minimum execution times),
// Figure 3 (per-plan execution times), and Figure 4 (the per-phase
// breakdown of the Past intention).
//
// Usage:
//
//	assessbench [-experiment all|table1|table2|table3|fig3|fig4]
//	            [-runs 3] [-seed 42] [-quick]
//	            [-sf1 0.01] [-sf10 0.1] [-sf100 1.0]
//
// The default scale presets keep the paper's three 10× steps but start
// from 6·10^4 fact rows so the sweep runs on a laptop; raise -sf100 (and
// friends) to approach the paper's absolute sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/assess-olap/assess/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1, table2, table3, fig3, fig4, or all")
		runs       = flag.Int("runs", 3, "rounds per (intention, scale), each running every plan once in alternating order; a plan's time is its median round")
		seed       = flag.Int64("seed", 42, "generator seed")
		quick      = flag.Bool("quick", false, "use small scale presets for a smoke run")
		sf1        = flag.Float64("sf1", 0.01, "scale factor of the SSB1 preset")
		sf10       = flag.Float64("sf10", 0.1, "scale factor of the SSB10 preset")
		sf100      = flag.Float64("sf100", 1.0, "scale factor of the SSB100 preset")
		verbose    = flag.Bool("v", false, "print progress while running")
	)
	flag.Parse()

	scales := []experiments.Scale{
		{Label: "SSB1", SF: *sf1},
		{Label: "SSB10", SF: *sf10},
		{Label: "SSB100", SF: *sf100},
	}
	if *quick {
		scales = experiments.QuickScales()
	}

	progress := func(string) {}
	if *verbose {
		progress = func(msg string) { fmt.Fprintln(os.Stderr, "…", msg) }
	}

	want := func(name string) bool {
		return *experiment == "all" || strings.EqualFold(*experiment, name)
	}
	switch {
	case want("table1"), want("table2"), want("table3"), want("fig3"), want("fig4"):
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}

	progress("generating datasets")
	envs, err := experiments.SetupAll(scales, *seed)
	if err != nil {
		fatal(err)
	}
	for _, env := range envs {
		fmt.Printf("# %s: %d fact rows (SF %g)\n", env.Scale.Label, env.Rows, env.Scale.SF)
	}
	fmt.Println()

	if want("table1") {
		rows, err := experiments.Table1(envs[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderTable1(rows))
	}
	if want("table2") {
		rows, err := experiments.Table2(envs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderTable2(rows, scales))
	}
	if want("table3") || want("fig3") || want("fig4") {
		timings, err := experiments.RunMatrix(envs, *runs, progress)
		if err != nil {
			fatal(err)
		}
		if want("table3") {
			fmt.Println(experiments.RenderTable3(experiments.Table3(timings, scales), scales))
		}
		if want("fig3") {
			fmt.Println(experiments.RenderFig3(timings, scales))
		}
		if want("fig4") {
			fmt.Println(experiments.RenderFig4(timings, scales))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "assessbench:", err)
	os.Exit(1)
}
