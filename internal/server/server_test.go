package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/sales"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	session := core.NewSession()
	ds := sales.FigureOne()
	if err := session.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(session).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

const siblingStatement = `with SALES
	for type = 'Fresh Fruit', country = 'Italy'
	by product, country
	assess quantity against country = 'France'
	using percOfTotal(difference(quantity, benchmark.quantity))
	labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}`

func TestAssessEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/assess", map[string]any{"statement": siblingStatement})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Strategy string `json:"strategy"`
		Cells    int    `json:"cells"`
		Rows     []struct {
			Coordinate []string `json:"coordinate"`
			Label      string   `json:"label"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "POP" || out.Cells != 3 || len(out.Rows) != 3 {
		t.Fatalf("response = %+v", out)
	}
	labels := map[string]string{}
	for _, r := range out.Rows {
		labels[r.Coordinate[0]] = r.Label
	}
	if labels["Apple"] != "bad" || labels["Pear"] != "ok" || labels["Lemon"] != "ok" {
		t.Errorf("labels = %v", labels)
	}
}

func TestAssessPlanSelection(t *testing.T) {
	srv := newServer(t)
	for _, planName := range []string{"best", "np", "jop", "pop"} {
		resp, body := post(t, srv, "/assess", map[string]any{
			"statement": siblingStatement, "plan": planName,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %s: status %d: %s", planName, resp.StatusCode, body)
		}
	}
	for _, planName := range []string{"warp", "cost"} {
		resp, body := post(t, srv, "/assess", map[string]any{
			"statement": siblingStatement, "plan": planName,
		})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "best, np, jop, or pop") {
			t.Errorf("unknown plan %q: status %d: %s", planName, resp.StatusCode, body)
		}
	}
}

func TestAssessNullsEncodeAsJSONNull(t *testing.T) {
	srv := newServer(t)
	stmt := strings.Replace(
		strings.Replace(siblingStatement, "assess quantity", "assess* quantity", 1),
		"'France'", "'Spain'", 1)
	resp, body := post(t, srv, "/assess", map[string]any{"statement": stmt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Rows []struct {
			Benchmark *float64 `json:"benchmark"`
			Label     string   `json:"label"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("%d rows", len(out.Rows))
	}
	for _, r := range out.Rows {
		if r.Benchmark != nil || r.Label != "null" {
			t.Errorf("row = %+v, want null benchmark and label", r)
		}
	}
}

func TestErrorKinds(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		stmt   string
		status int
		kind   string
	}{
		{"with SALES by", http.StatusBadRequest, "syntax"},
		{"with NOPE by month assess x labels quartiles", http.StatusBadRequest, "semantic"},
	}
	for _, c := range cases {
		resp, body := post(t, srv, "/assess", map[string]any{"statement": c.stmt})
		if resp.StatusCode != c.status {
			t.Errorf("%q: status %d, want %d", c.stmt, resp.StatusCode, c.status)
		}
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Kind != c.kind {
			t.Errorf("%q: kind %q, want %q (%v)", c.stmt, e.Kind, c.kind, err)
		}
	}
	// Missing statement and bad JSON.
	resp, _ := post(t, srv, "/assess", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty statement: status %d", resp.StatusCode)
	}
	r2, err := http.Post(srv.URL+"/assess", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", r2.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/explain", map[string]any{"statement": siblingStatement})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["strategy"] != "POP" || !strings.Contains(out["plan"], "pivot") {
		t.Errorf("explain = %v", out)
	}
	if _, ok := out["costs"]; ok {
		t.Errorf("explain reports costs: %v", out)
	}
}

func TestValidateEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, _ := post(t, srv, "/validate", map[string]any{"statement": siblingStatement})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid statement: status %d", resp.StatusCode)
	}
	resp, _ = post(t, srv, "/validate", map[string]any{"statement": "with NOPE by m assess x labels q"})
	if resp.StatusCode == http.StatusOK {
		t.Error("invalid statement validated")
	}
}

func TestSuggestEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/suggest", map[string]any{
		"statement": `with SALES for country = 'Italy' by product, country assess quantity`,
		"max":       3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sugs []struct {
		Statement string  `json:"Statement"`
		Score     float64 `json:"Score"`
	}
	if err := json.Unmarshal(body, &sugs); err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 || sugs[0].Statement == "" {
		t.Errorf("suggestions = %v", sugs)
	}
}

func TestCubesAndHealth(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/cubes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cubes []struct {
		Name     string   `json:"name"`
		Rows     int      `json:"rows"`
		Measures []string `json:"measures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cubes); err != nil {
		t.Fatal(err)
	}
	if len(cubes) != 1 || cubes[0].Name != "SALES" || cubes[0].Rows != 12 {
		t.Errorf("cubes = %v", cubes)
	}
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("health status %d", h.StatusCode)
	}
	// Method not allowed on POST-only endpoints.
	g, err := http.Get(srv.URL + "/assess")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /assess status %d", g.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := post(t, srv, "/query", map[string]any{
		"statement": `with SALES for country = 'Italy' by product, country get quantity`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Levels   []string         `json:"levels"`
		Measures []string         `json:"measures"`
		Cells    int              `json:"cells"`
		Rows     []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cells != 3 || len(out.Rows) != 3 {
		t.Fatalf("response = %+v", out)
	}
	if out.Levels[0] != "product" || out.Measures[0] != "quantity" {
		t.Errorf("levels %v measures %v", out.Levels, out.Measures)
	}
	found := false
	for _, r := range out.Rows {
		if r["product"] == "Apple" && r["quantity"] == 100.0 {
			found = true
		}
	}
	if !found {
		t.Errorf("Apple row missing: %v", out.Rows)
	}
	// An assess statement on /query is a 422.
	resp, _ = post(t, srv, "/query", map[string]any{"statement": siblingStatement})
	if resp.StatusCode == http.StatusOK {
		t.Error("assess statement accepted by /query")
	}
}

func TestAssessEndpointDeclaration(t *testing.T) {
	srv := newServer(t)
	// A declaration has no plan: an explicit one registers it too.
	for name, planName := range map[string]string{"signs": "", "tiers": "np"} {
		resp, body := post(t, srv, "/assess", map[string]any{
			"statement": `declare labels ` + name + ` as {[-inf, 0): down, [0, inf]: up}`,
			"plan":      planName,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %q: status %d: %s", planName, resp.StatusCode, body)
		}
		var out map[string]bool
		if err := json.Unmarshal(body, &out); err != nil || !out["declared"] {
			t.Fatalf("plan %q: response = %s (%v)", planName, body, err)
		}
	}
	// The declared labeler is usable in a later request.
	resp, body := post(t, srv, "/assess", map[string]any{
		"statement": `with SALES by product assess quantity against 80
			using difference(quantity, benchmark.quantity) labels signs`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", resp.StatusCode, body)
	}
}
