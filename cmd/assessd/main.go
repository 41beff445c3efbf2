// Command assessd serves assess statements over HTTP/JSON for
// interactive analysis:
//
//	POST /assess   {"statement": "...", "plan": "best|np|jop|pop"}
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
// A serving assessd scans and encodes each statement on all cores.
//
// Distribution: `-cluster local:N` scatter-gathers every query over N
// in-process shard workers; `-cluster URL,URL` points at remote workers
// started with `-cluster worker:I/N` (replicas joined with '|'). Facts
// are sharded by dist.AutoShardLevel. See docs/distribution.md.
//
// `-store-dir DIR` serves the cubes of a directory written by
// `assess -save` or `ssbgen -out-dir` (or a single cube directory),
// scanned out of core unless `-resident` decodes them into memory.
//
// Admission reads the tenant of a request from its X-Tenant header.
//
// Usage:
//
//	assessd [-addr :8080] [-data sales|ssb] [-rows 50000] [-sf 0.01]
//	        [-seed 42] [-store-dir DIR] [-resident]
//	        [-cluster local:N|worker:I/N|URL[|URL...],...]
//	        [-shard-timeout 2s] [-dist-policy fail|partial]
//	        [-cache-mb 64]
//	        [-admit-slots 0] [-max-queue 256] [-latency-budget 2s]
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

// options holds assessd's flags.
type options struct {
	addr, data, storeDir, cluster, distPolicy, debugAddr, slowPath string
	rows, cacheMB, admitSlots, maxQueue, slowMS                    int
	sf                                                             float64
	seed                                                           int64
	resident                                                       bool
	latencyBudget, shardTimeout                                    time.Duration
}

// declareFlags declares every assessd flag on fs.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.data, "data", "sales", "dataset: sales or ssb")
	fs.IntVar(&o.rows, "rows", 50_000, "fact rows for the sales dataset")
	fs.Float64Var(&o.sf, "sf", 0.01, "scale factor for the ssb dataset")
	fs.Int64Var(&o.seed, "seed", 42, "generator seed")
	fs.StringVar(&o.storeDir, "store-dir", "", "serve the cubes of a directory of cube directories (out-of-core; see assess -save and ssbgen -out-dir)")
	fs.BoolVar(&o.resident, "resident", false, "with -store-dir, load the segment directories fully into memory")
	fs.IntVar(&o.cacheMB, "cache-mb", 64, "query-result cache budget in MiB, and the same again for adaptively admitted views (0 = neither)")
	fs.IntVar(&o.admitSlots, "admit-slots", 0,
		"admission-control execution slots (0 = GOMAXPROCS; admission enabled when -max-queue or -latency-budget is set)")
	fs.IntVar(&o.maxQueue, "max-queue", 0,
		"admission queue depth before shedding with 429 (0 disables admission control unless -latency-budget is set)")
	fs.DurationVar(&o.latencyBudget, "latency-budget", 0,
		"shed load with 429 when the p99 completion estimate exceeds this budget (0 disables)")
	fs.StringVar(&o.cluster, "cluster", "",
		"distribution: local:N (N in-process shards), worker:I/N (serve shard I of N), or URL[|URL...],... (coordinate remote workers, replicas joined with '|'); empty = not distributed")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 0,
		"coordinator: per-shard scan deadline before re-dispatching to a replica or the local copy (0 = default)")
	fs.StringVar(&o.distPolicy, "dist-policy", "fail",
		"coordinator: result policy when a shard is lost entirely: fail (503) or partial (annotated degraded result)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug listener (pprof, expvar, metrics); empty disables")
	fs.IntVar(&o.slowMS, "slow-query-ms", 500, "slow-query log threshold in ms (0 disables)")
	fs.StringVar(&o.slowPath, "slow-query-log", "", "slow-query log file (default stderr)")
	return o
}

// resolveCluster parses -cluster and refuses a flag set explicitly where
// it would do nothing: the coordinator's flags on a process that
// coordinates no shards, and the API server's on a shard worker, which
// serves only the partial-aggregate RPC.
func resolveCluster(fs *flag.FlagSet, spec string) (cluster, error) {
	c, err := parseCluster(spec)
	if err != nil || c.kind == local || c.kind == remote {
		return c, err
	}
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case f.Name == "shard-timeout" || f.Name == "dist-policy":
			err = fmt.Errorf("assessd: -%s needs a coordinator -cluster (local:N or worker URLs), got -cluster %q", f.Name, spec)
		case c.kind == worker && apiFlags[f.Name]:
			err = fmt.Errorf("assessd: -%s has no effect on a shard worker: set it on the coordinator, not with -cluster %q", f.Name, spec)
		}
	})
	return c, err
}

// apiFlags configure the API server's cache, admission and slow-query
// log, none of which a shard worker runs.
var apiFlags = map[string]bool{
	"cache-mb": true, "admit-slots": true, "max-queue": true,
	"latency-budget": true, "slow-query-ms": true, "slow-query-log": true,
}

func main() {
	o := declareFlags(flag.CommandLine)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	shape, err := resolveCluster(flag.CommandLine, o.cluster)
	if err != nil {
		log.Fatal(err)
	}

	session, closeStores, err := open(o.data, o.rows, o.sf, o.seed, o.storeDir, o.resident)
	if err != nil {
		log.Fatal(err)
	}
	defer closeStores()

	var (
		handler, metrics http.Handler
		slow             = obsv.NewSlowLog(os.Stderr, 0)
		msg              = "assessd listening"
		attrs            []any
	)
	if shape.kind == worker {
		// Shard-worker mode: keep one hash slice of every fact and serve
		// the compact partial-aggregate RPC; the full API, cache, views,
		// and admission control live on the coordinator.
		if handler, err = workerHandler(session, shape); err != nil {
			log.Fatal(err)
		}
		metrics, msg = handler, "assessd shard worker listening"
	} else {
		session.Engine.SetParallelism(0)
		if err := enableCache(session, o.cacheMB); err != nil {
			log.Fatal(err)
		}
		if shape.kind != solo {
			if err := enableDistributed(session, shape, o.shardTimeout, o.distPolicy); err != nil {
				log.Fatal(err)
			}
		}
		if slow, err = openSlowLog(o.slowPath, time.Duration(o.slowMS)*time.Millisecond); err != nil {
			log.Fatal(err)
		}
		defer slow.Close()

		opts := []server.Option{server.WithLogger(logger), server.WithSlowLog(slow)}
		if o.maxQueue > 0 || o.latencyBudget > 0 {
			adm := sched.NewAdmission(o.admitSlots, o.maxQueue, o.latencyBudget)
			opts = append(opts, server.WithAdmission(adm, server.DefaultTenantHeader))
		}
		srv := server.New(session, opts...)
		handler, metrics = srv.Handler(), http.HandlerFunc(srv.Metrics)
		attrs = []any{"cubes", session.Engine.Facts(), "cacheMB", o.cacheMB, "slowQueryMs", o.slowMS}
	}
	if shape.kind != solo {
		attrs = append(attrs, "cluster", o.cluster, "shardLevels", shardLevels(session))
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests for up
	// to 5 s, close the debug listener, and flush the slow-query log.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = serve(ctx, serveConfig{
		addr:      o.addr,
		debugAddr: o.debugAddr,
		handler:   handler,
		metrics:   metrics,
		slow:      slow,
		logger:    logger,
		drain:     5 * time.Second,
		ready: func(api, debug net.Addr) {
			logger.Info(msg, append([]any{"addr", api.String(), "debugAddr", addrString(debug)}, attrs...)...)
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
