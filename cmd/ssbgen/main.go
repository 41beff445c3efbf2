// Command ssbgen generates a Star Schema Benchmark dataset and prints
// its statistics: fact cardinality, dimension cardinalities per level,
// and generation time. It is the dbgen stand-in used to verify that the
// generator hits the SSB cardinality ratios at any scale factor.
//
// With -out-dir it instead streams the rows straight into columnar
// segment directories — <out>/LINEORDER and <out>/LINEORDER_BUDGET —
// one generated block at a time, so generation is out-of-core: resident
// memory is bounded by the dimension data, one block and one segment
// buffer regardless of scale factor. The directories are served by
// assessd -store-dir.
//
// Usage:
//
//	ssbgen [-sf 0.01] [-seed 42] [-out-dir DIR] [-segment-rows N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/ssb"
)

// Segment-directory names under -out-dir, matching the cube names the
// server registers.
const (
	factDir   = "LINEORDER"
	budgetDir = "LINEORDER_BUDGET"
)

func main() {
	var (
		sf      = flag.Float64("sf", 0.01, "scale factor (6,000,000·sf fact rows)")
		seed    = flag.Int64("seed", 42, "generator seed")
		outDir  = flag.String("out-dir", "", "write segment directories under this path instead of holding the dataset in memory")
		segRows = flag.Int("segment-rows", 0, "rows per segment in -out-dir mode (0 = colstore default)")
	)
	flag.Parse()

	start := time.Now()
	g := ssb.NewGenerator(*sf, *seed)
	var rows int
	if *outDir == "" {
		rows = g.Materialize().Fact.Rows()
	} else {
		var err error
		if rows, err = stream(g, *outDir, *segRows); err != nil {
			fmt.Fprintln(os.Stderr, "ssbgen:", err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("SSB scale factor %g (seed %d) generated in %v\n\n", *sf, *seed, elapsed)
	fmt.Printf("%-22s %d rows\n", "LINEORDER:", rows)
	fmt.Printf("%-22s %d rows (expectedRevenue)\n\n", "LINEORDER_BUDGET:", rows)
	for _, h := range g.Schema.Hiers {
		fmt.Printf("%s hierarchy:\n", h.Name())
		for d, level := range h.Levels() {
			fmt.Printf("  %-12s %8d members\n", level, h.Dict(d).Len())
		}
	}
	if err := g.Schema.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ssbgen: schema validation failed:", err)
		os.Exit(1)
	}
	fmt.Println("\nschema validation: OK (every member has a complete roll-up path)")
	if *outDir != "" {
		fmt.Printf("segment directories: %s, %s\n",
			filepath.Join(*outDir, factDir), filepath.Join(*outDir, budgetDir))
	}
}

// stream drains the generator into two segment directories, never
// holding more than one block and one segment of buffered rows in memory.
func stream(g *ssb.Generator, outDir string, segRows int) (int, error) {
	if err := os.MkdirAll(outDir, 0o777); err != nil {
		return 0, err
	}
	opts := colstore.Options{SegmentRows: segRows}
	fw, err := colstore.CreateBulk(filepath.Join(outDir, factDir), g.Schema, opts)
	if err != nil {
		return 0, err
	}
	bw, err := colstore.CreateBulk(filepath.Join(outDir, budgetDir), g.BudgetSchema, opts)
	if err != nil {
		return 0, err
	}
	for {
		fact, budget := g.NextBlock(ssb.BlockRows)
		if fact.Rows == 0 {
			break
		}
		if err := fw.AppendBlock(fact); err != nil {
			return 0, err
		}
		if err := bw.AppendBlock(budget); err != nil {
			return 0, err
		}
	}
	if err := fw.Close(); err != nil {
		return 0, err
	}
	return g.Rows(), bw.Close()
}
