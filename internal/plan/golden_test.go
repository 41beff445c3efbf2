package plan

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestExplainGolden pins the Explain text of every plan the builders
// make: each benchmark kind under each feasible strategy, for assess and
// assess*. Regenerate with: go test ./internal/plan -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range []struct{ name, stmt string }{
		{"constant", constantStmt},
		{"external", externalStmt},
		{"sibling", siblingStmt},
		{"past", pastStmt},
		{"ancestor", ancestorStmt},
	} {
		for _, star := range []bool{false, true} {
			stmt, op := c.stmt, "assess"
			if star {
				op = "assess*"
				stmt = strings.Replace(stmt, "assess ", op+" ", 1)
			}
			b := bind(t, stmt)
			for _, s := range Strategies() {
				if !Feasible(s, b.Bench.Kind) {
					continue
				}
				p, err := Build(b, s)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "== %s, %s\n%s\n", c.name, op, p.Explain())
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Explain differs from %s (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
