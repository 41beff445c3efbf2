package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	assess "github.com/assess-olap/assess"
)

// captureStdout redirects os.Stdout around fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String(), runErr
}

const exampleStatement = `with SALES
	for type = 'Fresh Fruit', country = 'Italy'
	by product, country
	assess quantity against country = 'France'
	using percOfTotal(difference(quantity, benchmark.quantity))
	labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}`

func TestOpenSessionDatasets(t *testing.T) {
	for _, data := range []string{"figure1", "sales", "ssb"} {
		s, banner, err := openSession(data, 500, 0.0005, 1, "")
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if s == nil || banner == "" {
			t.Errorf("%s: empty session or banner", data)
		}
	}
	if _, _, err := openSession("nope", 0, 0, 0, ""); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunOnePlansAndExplain(t *testing.T) {
	s, _, err := openSession("figure1", 0, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, planName := range []string{"best", "cost", "np", "jop", "pop"} {
		out, err := captureStdout(t, func() error {
			return runOne(s, exampleStatement, planName, false, true)
		})
		if err != nil {
			t.Fatalf("plan %s: %v", planName, err)
		}
		if !strings.Contains(out, "bad") || !strings.Contains(out, "breakdown:") {
			t.Errorf("plan %s output:\n%s", planName, out)
		}
	}
	out, err := captureStdout(t, func() error {
		return runOne(s, exampleStatement, "best", true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "POP plan") {
		t.Errorf("explain output:\n%s", out)
	}
	if err := runOne(s, exampleStatement, "warp", false, false); err == nil {
		t.Error("unknown plan accepted")
	}
	if err := runOne(s, "garbage", "best", false, false); err == nil {
		t.Error("garbage statement accepted")
	}
}

func TestRunOneDeclaration(t *testing.T) {
	s, _, err := openSession("figure1", 0, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return runOne(s, `declare labels signs as {[-inf, 0): down, [0, inf]: up}`, "best", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "declared") {
		t.Errorf("declaration output: %s", out)
	}
}

func TestRunScriptAndHighlights(t *testing.T) {
	s, _, err := openSession("figure1", 0, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.assess")
	script := `-- comment line
declare labels signs as {[-inf, 0): down, [0, inf]: up};

with SALES by product assess quantity against 80
using difference(quantity, benchmark.quantity)
labels signs`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	showHighlights = true
	defer func() { showHighlights = false }()
	out, err := captureStdout(t, func() error {
		return runScript(s, path, "best", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"declared", "down", "up"} {
		if !strings.Contains(out, want) {
			t.Errorf("script output lacks %q:\n%s", want, out)
		}
	}
	if err := runScript(s, filepath.Join(t.TempDir(), "missing"), "best", false); err == nil {
		t.Error("missing script accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.assess")
	if err := os.WriteFile(bad, []byte("with NOPE by x assess y labels q"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScript(s, bad, "best", false); err == nil {
		t.Error("failing script accepted")
	}
}

func TestRunSuggestOutput(t *testing.T) {
	s, _, err := openSession("figure1", 0, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return runSuggest(s, `with SALES for country = 'Italy' by product, country assess quantity`, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "interest") {
		t.Errorf("suggest output:\n%s", out)
	}
}

// TestSaveAndLoadRoundTrip saves the sales session — both cubes and a
// declared labeler — as a directory, loads it, and demands the generated
// session's output for an External statement against the second cube and
// for a Sibling statement labeled by the declared labeler.
func TestSaveAndLoadRoundTrip(t *testing.T) {
	s, _, err := openSession("sales", 3000, 0, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := runOne(s, `declare labels signs as {[-inf, 0): down, [0, inf]: up}`, "best", false, false); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "session")
	out, err := captureStdout(t, func() error { return saveSession(s, dir) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "saved cubes SALES (3000 rows), SALES_TARGET") {
		t.Errorf("save output: %s", out)
	}
	loaded, banner, err := openSession("", 0, 0, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(banner, "loaded cubes SALES (3000 rows), SALES_TARGET") {
		t.Errorf("banner: %s", banner)
	}
	for _, stmt := range []string{
		`with SALES by month assess storeSales against SALES_TARGET.expectedSales
			using normDifference(storeSales, benchmark.expectedSales) labels quartiles`,
		`with SALES for country = 'Italy' by product, country assess quantity
			against country = 'France' using difference(quantity, benchmark.quantity) labels signs`,
	} {
		// The last line of the output is the cell count, plan and time.
		run := func(s *assess.Session) string {
			out, err := captureStdout(t, func() error { return runOne(s, stmt, "best", false, false) })
			if err != nil {
				t.Fatalf("%s: %v", firstLine(stmt), err)
			}
			return out[:strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n")+1]
		}
		if want, got := run(s), run(loaded); got != want || want == "" {
			t.Errorf("%s: loaded session printed\n%s\nwant\n%s", firstLine(stmt), got, want)
		}
	}
	if err := saveSession(loaded, dir); err == nil {
		t.Error("saving over an existing session directory succeeded")
	}
	if err := saveSession(assess.NewSession(), filepath.Join(t.TempDir(), "empty")); err == nil {
		t.Error("saving a session with no cube succeeded")
	}
}

func TestFirstLine(t *testing.T) {
	if got := firstLine("one\ntwo"); got != "one …" {
		t.Errorf("firstLine = %q", got)
	}
	if got := firstLine("single"); got != "single" {
		t.Errorf("firstLine = %q", got)
	}
}
