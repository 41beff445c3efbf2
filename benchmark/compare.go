package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords loads a result file: one runResult per line, as -out
// writes them. Only untraced records carry end-to-end metrics.
func readRecords(path string) (map[string][]*runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := make(map[string][]*runResult)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], &r)
		}
	}
	return byWorkload, sc.Err()
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// returns (the default, exclusive method); they need two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] at a clamped end: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median; a single
// run has none to show.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / q2
}

func values(runs []*runResult, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, the medians
// of both files, how much worse B is than A as a share of A, the
// metric's bound, and a verdict: ok, regression (worse by more than the
// bound), or unresolved (the runs of one side spread wider than the
// bound, so the difference cannot be told from noise). Any failed
// statement is a regression. It reports whether anything regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]*runResult(nil), ra...), rb...) {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "%-16s seed %d: %d of %d statements failed  regression\n", wl.name, r.Seed, r.Failed, r.Attempted)
				regressed = true
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return regressed, nil
}
