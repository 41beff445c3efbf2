// Command loadgen drives an assessd server with the load harness and
// prints latency-vs-scale tables.
//
// Closed-loop mode sweeps worker counts (each worker issues requests
// back-to-back — the concurrency-scaling experiment):
//
//	loadgen -url http://localhost:8080 -mode closed -workers 1,2,4,8,16 -per-worker 200
//
// Open-loop mode sweeps Poisson arrival rates (offered load independent
// of service rate, so overload shows up as latency and shed counts):
//
//	loadgen -url http://localhost:8080 -mode open -rates 50,100,200,400 -duration 5s
//
// The statement mix targets the built-in sales dataset (assessd -data
// sales); -endpoint switches between /query and /assess bodies.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/assess-olap/assess/internal/loadtest"
)

func main() {
	var (
		url       = flag.String("url", "http://localhost:8080", "assessd base URL")
		targets   = flag.String("targets", "", "comma-separated assessd base URLs to round-robin across (overrides -url)")
		mode      = flag.String("mode", "closed", "generator: closed or open")
		workers   = flag.String("workers", "1,2,4,8", "closed-loop worker counts to sweep")
		perWorker = flag.Int("per-worker", 100, "closed-loop requests per worker")
		rates     = flag.String("rates", "50,100,200", "open-loop arrival rates (qps) to sweep")
		duration  = flag.Duration("duration", 5*time.Second, "open-loop duration per rate")
		endpoint  = flag.String("endpoint", "/query", "endpoint: /query or /assess")
		seed      = flag.Int64("seed", 42, "statement-mix seed")
		tenants   = flag.Int("tenants", 3, "distinct tenants in the mix (0 disables the header)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		selective = flag.Float64("selectivity", 0,
			"fraction of draws taken from the narrow-predicate statement set (0..1; exercises late materialization)")
	)
	flag.Parse()

	mix := loadtest.DefaultSalesMix()
	mix.Path = *endpoint
	mix.Selectivity = *selective
	if *endpoint == "/assess" {
		for i, s := range mix.Statements {
			mix.Statements[i] = strings.Replace(s, " get ", " assess ", 1) + " labels quartiles"
		}
		for i, s := range mix.Selective {
			mix.Selective[i] = strings.Replace(s, " get ", " assess ", 1) + " labels quartiles"
		}
	}
	mix.Tenants = mix.Tenants[:0]
	for i := 0; i < *tenants; i++ {
		mix.Tenants = append(mix.Tenants, fmt.Sprintf("tenant%d", i))
	}

	httpTarget := func(base string) loadtest.HTTPTarget {
		return loadtest.HTTPTarget{
			BaseURL: strings.TrimRight(base, "/"),
			Client:  &http.Client{Timeout: *timeout},
		}
	}
	var target loadtest.Target = httpTarget(*url)
	if *targets != "" {
		mt := &loadtest.MultiTarget{}
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				mt.Targets = append(mt.Targets, httpTarget(u))
			}
		}
		if len(mt.Targets) == 0 {
			log.Fatal("loadgen: -targets is empty")
		}
		target = mt
	}
	ctx := context.Background()

	var results []loadtest.Result
	switch *mode {
	case "closed":
		for _, w := range parseInts(*workers) {
			fmt.Fprintf(os.Stderr, "closed loop: %d workers × %d requests...\n", w, *perWorker)
			results = append(results, loadtest.Closed(ctx, target, mix, w, *perWorker, *seed))
		}
	case "open":
		for _, r := range parseInts(*rates) {
			fmt.Fprintf(os.Stderr, "open loop: %d qps for %v...\n", r, *duration)
			results = append(results, loadtest.Open(ctx, target, mix, float64(r), *duration, *seed))
		}
	default:
		log.Fatalf("loadgen: -mode must be closed or open, got %q", *mode)
	}
	fmt.Print(loadtest.Table(results))
}

func parseInts(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			log.Fatalf("loadgen: bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		log.Fatal("loadgen: empty sweep list")
	}
	return out
}
