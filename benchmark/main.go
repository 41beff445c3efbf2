// Command benchmark is the repository's performance benchmark: it builds
// one of five deployments in-process exactly as cmd/assessd wires it,
// drives it closed-loop over HTTP from the same process, checks the
// answers, and prints every metric by name with its unit. See README.md.
//
// Usage:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1 [-out FILE]
//	benchmark -smoke
//	benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cold_resident, warm_dashboard, cold_segment, append_segment or cold_sharded")
		seed    = flag.Int64("seed", 1, "seed of the data and statement generators")
		seconds = flag.Float64("seconds", 12, "length of the timed phase the statement counts are scaled to")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run every workload, untraced and traced, on tiny data")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		out     = flag.String("out", "", "append the run's result record to this file (input of -compare)")
		workdir = flag.String("workdir", ".bench_build/work", "directory for segment stores")
		outDir  = flag.String("out-dir", "benchmark/out", "directory for trace_<workload>.json")
		spec    = flag.String("benchmark-json", "BENCHMARK.json", "metric bounds for -compare")
	)
	flag.Parse()
	opts := runOptions{seed: *seed, seconds: *seconds, trace: *trace != 0, workdir: *workdir, outDir: *outDir}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *smoke:
		opts.smoke = true
		err = runSmoke(opts)
	default:
		err = runOne(*name, opts, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOne runs a workload and prints the metric table followed, as the
// last line, by the result object the driver reads.
func runOne(name string, o runOptions, out string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	printTable(res, time.Since(start))
	if out != "" {
		if err := appendRecord(out, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d statements failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func printTable(res *runResult, took time.Duration) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Printf("%s seed=%d: %s metrics (%d statements attempted, %d failed, run took %.1fs)\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, took.Seconds())
	for _, f := range res.Failures {
		fmt.Println("  FAILED", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if len(res.Ledger) > 0 {
		fmt.Println("  ledger: self time per layer over the traced statements, as a share of their wall time")
		for _, row := range res.Ledger {
			fmt.Printf("    %-12s %12.1f ms %6.1f%%\n", row.Layer, row.SelfMs, 100*row.Share)
		}
	}
}

// appendRecord adds the result as one JSON line.
func appendRecord(path string, res *runResult) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSmoke exercises every workload both ways on tiny data and checks
// the structure of what comes out; it asserts nothing about time.
func runSmoke(o runOptions) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, err := runWorkload(w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := checkStructure(res); err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, traced, err)
			}
			fmt.Printf("%-16s trace=%-5v ok: %d statements, %d metrics\n", w.name, traced, res.Attempted, len(res.Metrics))
		}
	}
	return nil
}
