package obsv

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help", "kind", "a")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "help", "kind", "a"); again != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if other := r.Counter("test_total", "help", "kind", "b"); other == c {
		t.Fatal("different labels must return a different series")
	}
	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "k1", "v1", "k2", "v2")
	b := r.Counter("x_total", "", "k2", "v2", "k1", "v1")
	if a != b {
		t.Fatal("label order must not create a new series")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("q_total", "Queries.", "strategy", "np").Add(3)
	r.Gauge("g_now", "Gauge.").Set(1.25)
	r.Histogram("lat_seconds", "Latency.").Observe(0.010)
	r.GaugeFunc("fn_gauge", "Func.", func() float64 { return 7 })
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE q_total counter",
		`q_total{strategy="np"} 3`,
		"# TYPE g_now gauge",
		"g_now 1.25",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_count 1",
		"fn_gauge 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be `name{labels} value`.
	line := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line %q", l)
		}
	}
}

// TestFuncRegisteredTwicePanics: a Func series keeps its first reader;
// a second registration of the same name and labels is a programming
// error, and another label set is another series.
func TestFuncRegisteredTwicePanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("once", "", func() float64 { return 1 }, "k", "a")
	r.GaugeFunc("once", "", func() float64 { return 2 }, "k", "b")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second registration of once{k=\"a\"} did not panic")
			}
		}()
		r.GaugeFunc("once", "", func() float64 { return 3 }, "k", "a")
	}()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, want := range []string{`once{k="a"} 1`, `once{k="b"} 2`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRegistryRace hammers one registry from 32 goroutines mixing
// series creation, counter/gauge/histogram writes, scrapes, and
// snapshots; run under -race it proves the registry is safe on the
// serving path.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	registerProcessMetrics(r, time.Now())
	const goroutines = 32
	const iters = 200
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("race_total", "h", "worker", fmt.Sprint(gi%4)).Inc()
				r.Gauge("race_gauge", "h").Set(float64(i))
				r.Histogram("race_seconds", "h", "stage", fmt.Sprint(i%3)).Observe(float64(i) * 1e-4)
				if i%25 == 0 {
					var buf bytes.Buffer
					r.WritePrometheus(&buf)
					_ = r.Snapshots()
				}
				if i == iters/2 {
					r.GaugeFunc("race_fn", "h", func() float64 { return float64(gi) }, "worker", fmt.Sprint(gi))
				}
			}
		}(gi)
	}
	wg.Wait()
	var total int64
	for w := 0; w < 4; w++ {
		total += r.Counter("race_total", "h", "worker", fmt.Sprint(w)).Value()
	}
	if want := int64(goroutines * iters); total != want {
		t.Fatalf("lost counter increments: got %d, want %d", total, want)
	}
	h := r.Histogram("race_seconds", "h", "stage", "0")
	if n, _ := h.CountSum(); n == 0 {
		t.Fatal("histogram recorded no observations")
	}
}
