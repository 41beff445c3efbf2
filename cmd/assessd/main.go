// Command assessd serves assess statements over HTTP/JSON for
// interactive analysis:
//
//	POST /assess   {"statement": "...", "plan": "best|cost|np|jop|pop"}
//	POST /explain  {"statement": "..."}
//	POST /validate {"statement": "..."}
//	POST /suggest  {"statement": "<partial>", "max": 3}
//	POST /query    {"statement": "with C by G get m"}
//	GET  /cubes
//	GET  /stats
//	GET  /metrics
//	GET  /healthz
//
// Every POST endpoint accepts ?trace=1 to return the query's span tree.
// With -debug-addr set, a second listener serves net/http/pprof,
// expvar (/debug/vars), and /metrics, kept off the serving port.
//
// `-parallel N` is the workers one statement is given: its fact scans
// are split over that many goroutines, and a result of more than a few
// 512-row chunks is formatted by as many while the handler writes.
//
// Distribution: `-shards N` scatter-gathers every query over N
// in-process shard workers; `-shard-addrs` points at remote workers
// started with `-worker -shards N -shard-index I` (replicas joined
// with '|'). See docs/distribution.md.
//
// `-store-dir DIR` serves the cubes of a directory written by
// `assess -save` or `ssbgen -out-dir` (or a single cube directory),
// scanned out of core unless `-resident` decodes them into memory.
//
// Usage:
//
//	assessd [-addr :8080] [-data sales|ssb] [-rows 50000] [-sf 0.01]
//	        [-seed 42] [-store-dir DIR] [-resident]
//	        [-worker] [-shards N] [-shard-index I] [-shard-addrs URLS]
//	        [-shard-level LEVEL] [-shard-timeout 2s] [-dist-policy fail|partial]
//	        [-parallel 0]
//	        [-cache-mb 64]
//	        [-admit-slots 0] [-max-queue 256]
//	        [-latency-budget 2s] [-tenant-header X-Tenant]
//	        [-debug-addr :6060] [-slow-query-ms 500] [-slow-query-log path]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	assess "github.com/assess-olap/assess"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sched"
	"github.com/assess-olap/assess/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		data       = flag.String("data", "sales", "dataset: sales or ssb")
		rows       = flag.Int("rows", 50_000, "fact rows for the sales dataset")
		sf         = flag.Float64("sf", 0.01, "scale factor for the ssb dataset")
		seed       = flag.Int64("seed", 42, "generator seed")
		storeDir   = flag.String("store-dir", "", "serve the cubes of a directory of cube directories (out-of-core; see assess -save and ssbgen -out-dir)")
		resident   = flag.Bool("resident", false, "with -store-dir, load the segment directories fully into memory")
		parallel   = flag.Int("parallel", 1, "workers per statement, for its fact scans and for encoding its result (0 = all cores)")
		cacheMB    = flag.Int("cache-mb", 64, "query-result cache budget in MiB, and the same again for adaptively admitted views (0 = neither)")
		admitSlots = flag.Int("admit-slots", 0,
			"admission-control execution slots (0 = GOMAXPROCS; admission enabled when -max-queue or -latency-budget is set)")
		maxQueue = flag.Int("max-queue", 0,
			"admission queue depth before shedding with 429 (0 disables admission control unless -latency-budget is set)")
		latBudget = flag.Duration("latency-budget", 0,
			"shed load with 429 when the p99 completion estimate exceeds this budget (0 disables)")
		tenantHdr = flag.String("tenant-header", server.DefaultTenantHeader,
			"request header naming the tenant for fair admission queuing")
		worker = flag.Bool("worker", false,
			"serve as a shard worker: keep shard -shard-index of -shards and answer the partial-aggregate RPC instead of the full API")
		shards = flag.Int("shards", 0,
			"shard count: with -worker, the cluster size; without, spin up that many in-process shard workers and scatter-gather over them")
		shardAddrs = flag.String("shard-addrs", "",
			"comma-separated shard worker base URLs (replicas joined with '|'); scatter-gather over remote workers")
		shardIndex = flag.Int("shard-index", 0, "with -worker, which shard of -shards this process owns")
		shardLevel = flag.String("shard-level", "",
			"level name to hash-shard facts by (default: the base level with the largest dictionary)")
		shardTimeout = flag.Duration("shard-timeout", 0,
			"per-shard scan deadline before re-dispatching to a replica or the local copy (0 = default)")
		distPolicy = flag.String("dist-policy", "fail",
			"result policy when a shard is lost entirely: fail (503) or partial (annotated degraded result)")
		debugAddr = flag.String("debug-addr", "", "debug listener (pprof, expvar, metrics); empty disables")
		slowMS    = flag.Int("slow-query-ms", 500, "slow-query log threshold in ms (0 disables)")
		slowPath  = flag.String("slow-query-log", "", "slow-query log file (default stderr)")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	distCfg := distConfig{
		worker:     *worker,
		shards:     *shards,
		shardAddrs: *shardAddrs,
		shardIndex: *shardIndex,
		shardLevel: *shardLevel,
		timeout:    *shardTimeout,
		policy:     *distPolicy,
	}

	session, closeStores, err := open(*data, *rows, *sf, *seed, *storeDir, *resident)
	if err != nil {
		log.Fatal(err)
	}
	defer closeStores()

	if distCfg.worker {
		// Shard-worker mode: keep one hash slice of every fact and serve
		// the compact partial-aggregate RPC; the full API, cache, views,
		// and admission control live on the coordinator.
		handler, err := workerHandler(session, distCfg)
		if err != nil {
			log.Fatal(err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = serve(ctx, serveConfig{
			addr:      *addr,
			debugAddr: *debugAddr,
			handler:   handler,
			metrics:   http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { metricsHandler(w) }),
			slow:      obsv.NewSlowLog(os.Stderr, 0),
			logger:    logger,
			drain:     5 * time.Second,
			ready: func(api, debug net.Addr) {
				logger.Info("assessd shard worker listening",
					"addr", api.String(),
					"shard", distCfg.shardIndex,
					"shards", distCfg.shards,
					"cubes", session.Engine.Facts())
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if *parallel != 1 {
		session.Engine.SetParallelism(*parallel)
	}
	if err := enableCache(session, *cacheMB); err != nil {
		log.Fatal(err)
	}
	if distCfg.active() {
		if err := enableDistributed(session, distCfg); err != nil {
			log.Fatal(err)
		}
	}

	slow, err := openSlowLog(*slowPath, time.Duration(*slowMS)*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	defer slow.Close()

	opts := []server.Option{
		server.WithLogger(logger),
		server.WithSlowLog(slow),
	}
	if *maxQueue > 0 || *latBudget > 0 {
		adm := sched.NewAdmission(*admitSlots, *maxQueue, *latBudget)
		opts = append(opts, server.WithAdmission(adm, *tenantHdr))
	}
	srv := server.New(session, opts...)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests for up
	// to 5 s, close the debug listener, and flush the slow-query log.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = serve(ctx, serveConfig{
		addr:      *addr,
		debugAddr: *debugAddr,
		handler:   srv.Handler(),
		metrics:   http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { metricsHandler(w) }),
		slow:      slow,
		logger:    logger,
		drain:     5 * time.Second,
		ready: func(api, debug net.Addr) {
			logger.Info("assessd listening",
				"addr", api.String(),
				"debugAddr", addrString(debug),
				"cubes", session.Engine.Facts(),
				"cacheMB", *cacheMB,
				"slowQueryMs", *slowMS)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
}

func addrString(a net.Addr) string {
	if a == nil {
		return ""
	}
	return a.String()
}

// metricsHandler renders the default registry (the debug listener's
// /metrics mirror; the API listener serves its own via the server).
func metricsHandler(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obsv.Default.WritePrometheus(w)
}

// openSlowLog builds the slow-query log: to a file when a path is
// given, else stderr. A non-positive threshold disables logging.
func openSlowLog(path string, threshold time.Duration) (*obsv.SlowLog, error) {
	if path == "" {
		return obsv.NewSlowLog(os.Stderr, threshold), nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("assessd: slow-query log: %w", err)
	}
	return obsv.NewSlowLog(f, threshold), nil
}

// open builds the session to serve: the cubes of storeDir (through
// assess.OpenSession, out-of-core unless resident), else a generated
// dataset. The returned function closes the on-disk stores.
func open(data string, rows int, sf float64, seed int64, storeDir string, resident bool) (*assess.Session, func() error, error) {
	noop := func() error { return nil }
	if storeDir != "" {
		return assess.OpenSession(storeDir, resident)
	}
	switch data {
	case "sales":
		s, _, err := assess.NewSalesSession(rows, seed)
		return s, noop, err
	case "ssb":
		s, _, err := assess.NewSSBSession(sf, seed)
		return s, noop, err
	}
	return nil, noop, fmt.Errorf("unknown dataset %q", data)
}

// enableCache gives the session a query-result cache of mb MiB and
// admits views under a budget of as many again; 0 leaves it without
// either.
func enableCache(session *assess.Session, mb int) error {
	if mb < 0 {
		return fmt.Errorf("assessd: -cache-mb must be 0 (no cache) or more, got %d", mb)
	}
	if mb > 0 {
		session.EnableCache(int64(mb) << 20)
	}
	return nil
}
