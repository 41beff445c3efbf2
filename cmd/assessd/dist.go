package main

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	assess "github.com/assess-olap/assess"
	"github.com/assess-olap/assess/internal/dist"
)

// cluster is the shape -cluster selects. The zero value is a process
// that is not distributed.
type cluster struct {
	kind   clusterKind
	shards int                  // local, worker: the cluster size
	index  int                  // worker: the shard this process serves
	chains [][]dist.ShardClient // remote: each shard's workers, primary first
}

type clusterKind int

const (
	solo   clusterKind = iota
	local              // local:N — N in-process shard workers
	worker             // worker:I/N — serve shard I of N
	remote             // URL[|URL…],… — coordinate remote workers
)

// parseCluster reads a -cluster spec: "" (not distributed), local:N,
// worker:I/N, or comma-separated shards of |-joined replica URLs. Any
// other spec is an error that quotes it.
func parseCluster(spec string) (cluster, error) {
	bad := func(why string) (cluster, error) {
		return cluster{}, fmt.Errorf("assessd: -cluster %q: %s (want local:N, worker:I/N or URL[|URL...],...)", spec, why)
	}
	if spec == "" {
		return cluster{}, nil
	}
	if n, ok := strings.CutPrefix(spec, "local:"); ok {
		shards, err := strconv.Atoi(n)
		if err != nil || shards < 1 {
			return bad("local:N needs a shard count N >= 1")
		}
		return cluster{kind: local, shards: shards}, nil
	}
	if in, ok := strings.CutPrefix(spec, "worker:"); ok {
		i, n, _ := strings.Cut(in, "/")
		index, err1 := strconv.Atoi(i)
		shards, err2 := strconv.Atoi(n)
		if err1 != nil || err2 != nil || shards < 1 || index < 0 || index >= shards {
			return bad("worker:I/N needs a shard count N >= 1 and an index I in [0,N)")
		}
		return cluster{kind: worker, shards: shards, index: index}, nil
	}
	c := cluster{kind: remote}
	for _, group := range strings.Split(spec, ",") {
		var chain []dist.ShardClient
		for _, addr := range strings.Split(group, "|") {
			addr = strings.TrimSpace(addr)
			if u, err := url.Parse(addr); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return bad(fmt.Sprintf("%q is not an http(s) worker URL", addr))
			}
			chain = append(chain, &dist.HTTPClient{BaseURL: addr})
		}
		c.chains = append(c.chains, chain)
	}
	return c, nil
}

// shardLevels names the level each fact is hash-sharded by. It is
// always dist.AutoShardLevel, a function of the data alone, so workers
// and a coordinator started apart agree on it.
func shardLevels(session *assess.Session) map[string]string {
	levels := make(map[string]string)
	for _, name := range session.Engine.Facts() {
		f, _ := session.Engine.Fact(name)
		levels[name] = f.Schema.LevelName(dist.AutoShardLevel(f.Schema))
	}
	return levels
}

// workerHandler turns the session into shard c.index of c.shards: of
// every registered fact only that slice is built and kept, served over
// the compact partial-aggregate RPC (POST /dist/scan, /dist/append, GET
// /dist/stats, /healthz, /metrics).
func workerHandler(session *assess.Session, c cluster) (http.Handler, error) {
	w := dist.NewWorker()
	for _, name := range session.Engine.Facts() {
		f, _ := session.Engine.Fact(name)
		shard, err := dist.FactShard(f, dist.AutoShardLevel(f.Schema), c.shards, c.index)
		if err != nil {
			return nil, fmt.Errorf("assessd: sharding %s: %w", name, err)
		}
		if err := w.Register(name, shard); err != nil {
			return nil, err
		}
	}
	return w.Handler(), nil
}

// enableDistributed wires a scatter-gather coordinator onto the
// session: an in-process cluster for local:N, else HTTP clients for the
// remote shard chains. The session keeps its full local copy of every
// fact for planning, views, and per-shard local fallback.
func enableDistributed(session *assess.Session, c cluster, timeout time.Duration, policyName string) error {
	policy, err := dist.ParsePolicy(policyName)
	if err != nil {
		return fmt.Errorf("assessd: %w", err)
	}
	coord := dist.NewCoordinator(session.Engine, dist.Config{
		ShardTimeout: timeout,
		Policy:       policy,
	})

	var lc *dist.LocalCluster
	if c.kind == local {
		lc = dist.NewLocalCluster(c.shards)
	}
	for _, name := range session.Engine.Facts() {
		f, _ := session.Engine.Fact(name)
		level := dist.AutoShardLevel(f.Schema)
		tableChains := c.chains
		if lc != nil {
			if err := lc.AddFact(name, f, level); err != nil {
				return fmt.Errorf("assessd: sharding %s: %w", name, err)
			}
			tableChains = lc.Clients()
		}
		if err := coord.AddTable(name, level, tableChains, true); err != nil {
			return err
		}
	}
	session.EnableDistributed(coord)
	return nil
}
