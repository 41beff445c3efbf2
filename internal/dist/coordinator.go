// Coordinator: plans each fact scan once, fans per-shard requests out
// concurrently, and has the engine combine the replies. It implements
// engine.ScanBatcher, so installing it on a session routes every
// query-path scan here; facts without a shard table fall through to a
// direct engine scan.
package dist

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// DefaultShardTimeout bounds one scan attempt against one replica.
const DefaultShardTimeout = 2 * time.Second

// Config tunes the coordinator's failure handling.
type Config struct {
	// ShardTimeout is the per-attempt deadline for one replica
	// (DefaultShardTimeout when zero).
	ShardTimeout time.Duration
	// Policy decides what happens when a shard cannot be served at all.
	Policy Policy
}

// unseenGen marks a shard whose generation the coordinator has not
// observed yet; the first response initializes the expectation.
const unseenGen = ^uint64(0)

// shardState is the coordinator's bookkeeping for one shard of one
// fact.
type shardState struct {
	clients []ShardClient // primary first, then replicas
	// expect is the last reconciled shard generation (unseenGen until
	// the first response).
	expect atomic.Uint64
	// counters surfaced in Stats.
	scans, errors, redispatches, fallbacks atomic.Int64
}

// table is one sharded fact: its shard level, per-shard state, the
// coordinator's own full copy (schema source and fallback scanner),
// and the shard-level member ownership map used for routing.
type table struct {
	fact   string
	local  *storage.FactTable
	level  mdm.LevelRef
	shards []*shardState
	// owned[s] lists the shard-level member ids hashed to shard s,
	// sorted; it doubles as the fallback predicate for shard s.
	owned [][]int32
	// fallback enables serving a failed shard from the local copy.
	fallback bool
}

// Coordinator scatter-gathers scans over sharded facts.
type Coordinator struct {
	eng *engine.Engine
	cfg Config

	mu     sync.RWMutex
	tables map[string]*table

	fanouts     atomic.Int64
	partials    atomic.Int64
	unavailable atomic.Int64
}

// NewCoordinator wraps the session engine. The engine must hold a full
// local copy of every fact that will be sharded (it is the schema
// source, the view/materialization substrate, and the local fallback).
func NewCoordinator(eng *engine.Engine, cfg Config) *Coordinator {
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = DefaultShardTimeout
	}
	return &Coordinator{eng: eng, cfg: cfg, tables: make(map[string]*table)}
}

// AddTable declares fact as sharded across the given replica chains
// (chains[s] is shard s's primary followed by its replicas). localFallback
// lets a failed shard be served from the engine's local copy via a
// synthesized ownership predicate — bit-identical to the shard's own
// partial, since both scan exactly the rows hashed to that shard.
func (c *Coordinator) AddTable(fact string, level mdm.LevelRef, chains [][]ShardClient, localFallback bool) error {
	f, ok := c.eng.Fact(fact)
	if !ok {
		return fmt.Errorf("dist: fact %s not registered with the coordinator engine", fact)
	}
	if len(chains) == 0 {
		return fmt.Errorf("dist: fact %s: no shards", fact)
	}
	if !f.Schema.HasLevel(level) {
		return fmt.Errorf("dist: fact %s: shard level out of range", fact)
	}
	t := &table{
		fact:     fact,
		local:    f,
		level:    level,
		owned:    ownedMembers(f.Schema, level, len(chains)),
		fallback: localFallback,
	}
	for _, chain := range chains {
		if len(chain) == 0 {
			return fmt.Errorf("dist: fact %s: empty replica chain", fact)
		}
		ss := &shardState{clients: chain}
		ss.expect.Store(unseenGen)
		t.shards = append(t.shards, ss)
	}
	c.mu.Lock()
	c.tables[fact] = t
	c.mu.Unlock()
	return nil
}

func (c *Coordinator) tableFor(fact string) *table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[fact]
}

// Scan implements engine.ScanBatcher: sharded facts scatter-gather,
// everything else falls through.
func (c *Coordinator) Scan(ctx context.Context, q engine.Query, ops []mdm.AggOp, names []string) (*cube.Cube, error) {
	t := c.tableFor(q.Fact)
	if t == nil {
		return c.eng.ScanWithOps(ctx, q, ops, names)
	}
	return c.scatterGather(ctx, t, q, ops, names)
}

// shardResult is one shard's part: its decoded cells, the shard
// generation (remote scans only), and how it was served.
type shardResult struct {
	part  *cube.Cube
	gen   uint64
	local bool // served by local fallback; gen is not a shard generation
	err   error
}

func (c *Coordinator) scatterGather(ctx context.Context, t *table, q engine.Query, ops []mdm.AggOp, names []string) (*cube.Cube, error) {
	// The shards compute the sub-aggregates the engine lays out for the
	// request.
	plan := engine.Decompose(q.Measures, ops)
	req := &ScanRequest{Fact: q.Fact, Group: []mdm.LevelRef(q.Group), Measures: plan.Measures}
	for k, op := range plan.Ops {
		req.Ops = append(req.Ops, int(op))
		req.Names = append(req.Names, fmt.Sprintf("p%d", k))
	}
	for _, p := range q.Preds {
		req.Preds = append(req.Preds, WirePred{Hier: p.Level.Hier, Level: p.Level.Level, Members: p.Members})
	}

	needed := t.route(q.Preds)
	c.fanouts.Add(1)
	mDistFanouts.Inc()
	mDistShardsPruned.Add(int64(len(t.shards) - len(needed)))

	start := time.Now()
	results := make([]shardResult, len(needed))
	var wg sync.WaitGroup
	for i, s := range needed {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			results[i] = c.scanShard(ctx, t, s, req)
		}(i, s)
	}
	wg.Wait()
	hDistFanout.Observe(time.Since(start).Seconds())

	var failed []int
	var lastErr error
	parts := make([]*cube.Cube, 0, len(results))
	for i, r := range results {
		if r.err != nil {
			failed = append(failed, needed[i])
			lastErr = r.err
			continue
		}
		if !r.local {
			c.reconcile(t, needed[i], r.gen)
		}
		parts = append(parts, r.part)
	}
	if len(failed) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c.cfg.Policy == PolicyFail {
			c.unavailable.Add(1)
			mDistUnavailable.Inc()
			return nil, &Unavailable{Fact: q.Fact, Shards: failed, Err: lastErr}
		}
		// PolicyPartial: combine what arrived, annotate the request, and
		// bump the local fact's version so the degraded result can
		// never be served from the query cache as if it were complete.
		c.partials.Add(1)
		mDistPartialsServed.Inc()
		if n := noteFrom(ctx); n != nil {
			n.record(q.Fact, failed)
		}
		t.local.AdvanceVersion(1)
	}

	m0 := time.Now()
	out, err := c.eng.Combine(ctx, q, plan, names, parts)
	hDistMerge.Observe(time.Since(m0).Seconds())
	return out, err
}

// scanShard tries shard s's replica chain under per-attempt deadlines,
// then the local fallback: the request's own scan narrowed to the
// members shard s owns. Each attempt runs in its own goroutine so an
// unresponsive replica is abandoned at the deadline rather than waited
// on.
func (c *Coordinator) scanShard(ctx context.Context, t *table, s int, req *ScanRequest) shardResult {
	ss := t.shards[s]
	var lastErr error
	for attempt, cl := range ss.clients {
		if err := ctx.Err(); err != nil {
			return shardResult{err: err}
		}
		if attempt > 0 {
			ss.redispatches.Add(1)
			mDistRedispatches.Inc()
		}
		ss.scans.Add(1)
		mDistShardScans.Inc()
		actx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		type attemptResult struct {
			gen  uint64
			part *cube.Cube
			err  error
		}
		ch := make(chan attemptResult, 1)
		a0 := time.Now()
		go func(cl ShardClient) {
			gen, part, err := cl.Scan(actx, req, t.local.Schema)
			ch <- attemptResult{gen: gen, part: part, err: err}
		}(cl)
		var ar attemptResult
		select {
		case ar = <-ch:
		case <-actx.Done():
			ar.err = actx.Err()
		}
		cancel()
		if ar.err == nil {
			hDistShard.Observe(time.Since(a0).Seconds())
			return shardResult{part: ar.part, gen: ar.gen}
		}
		ss.errors.Add(1)
		mDistShardErrors.Inc()
		lastErr = ar.err
	}
	if t.fallback {
		if err := ctx.Err(); err != nil {
			return shardResult{err: err}
		}
		ss.fallbacks.Add(1)
		mDistLocalFallbacks.Inc()
		q, ops, err := req.query()
		if err == nil {
			q.Preds = append(q.Preds, engine.Predicate{Level: t.level, Members: t.owned[s]})
			var part *cube.Cube
			if part, err = c.eng.ScanWithOps(ctx, q, ops, req.Names); err == nil {
				return shardResult{part: part, local: true}
			}
		}
		lastErr = err
	}
	return shardResult{err: lastErr}
}

// route returns the shard indices a query with the given predicates
// must touch, in ascending order. Predicates on hierarchies other than
// the shard hierarchy cannot prune shards; predicates on the shard
// hierarchy narrow the compatible shard-level members (mdm's Accept at
// the shard level: exact for a predicate at or above it, the members a
// finer predicate's rows roll up to otherwise), and only the shards
// owning a compatible member are scanned. All predicates still travel
// with the request, so worker zone maps prune further within each shard.
func (t *table) route(preds []engine.Predicate) []int {
	hier := t.local.Schema.Hiers[t.level.Hier]
	var compat []bool // nil = unconstrained
	for _, p := range preds {
		if p.Level.Hier == t.level.Hier {
			compat = hier.Accept(compat, t.level.Level, p.Level.Level, p.Members)
		}
	}
	n := len(t.shards)
	hit := make([]bool, n)
	for id, ok := range compat {
		if ok {
			hit[shardOf(int32(id), n)] = true
		}
	}
	var out []int
	for s := range hit {
		if hit[s] || compat == nil {
			out = append(out, s)
		}
	}
	return out
}

// reconcile folds a shard's reported generation into the coordinator's
// expectation: growth beyond what the coordinator has already accounted
// for (appends that reached the shard directly) advances the local
// fact's version by the difference, so cached results and views built
// before the append are invalidated exactly once.
func (c *Coordinator) reconcile(t *table, s int, gen uint64) {
	ss := t.shards[s]
	for {
		old := ss.expect.Load()
		if old == unseenGen {
			if ss.expect.CompareAndSwap(old, gen) {
				return
			}
			continue
		}
		if gen <= old {
			return
		}
		if ss.expect.CompareAndSwap(old, gen) {
			t.local.AdvanceVersion(gen - old)
			return
		}
	}
}

// Append routes one row through the coordinator: the owning shard's
// primary gets it first (replicas next on error), then the local copy,
// and the shard's generation expectation absorbs the reported version
// so the next merge does not double-count the append. Non-sharded
// facts append locally.
func (c *Coordinator) Append(ctx context.Context, fact string, keys []int32, vals []float64) error {
	t := c.tableFor(fact)
	if t == nil {
		f, ok := c.eng.Fact(fact)
		if !ok {
			return fmt.Errorf("dist: fact %s not registered", fact)
		}
		return f.Append(keys, vals)
	}
	hier := t.local.Schema.Hiers[t.level.Hier]
	member := hier.LevelMap(0, t.level.Level)
	if h := t.level.Hier; h >= len(keys) || uint(keys[h]) >= uint(len(member)) {
		return fmt.Errorf("dist: append to %s: no key inside the dictionary of shard hierarchy %s", fact, hier.Name())
	}
	s := shardOf(member[keys[t.level.Hier]], len(t.shards))
	ss := t.shards[s]
	var gen uint64
	var err error
	for _, cl := range ss.clients {
		gen, err = cl.Append(ctx, fact, keys, vals)
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("dist: append to shard %d of %s failed: %w", s, fact, err)
	}
	mDistAppends.Inc()
	// The local copy's own Append bumps the session generation; absorb
	// the shard's new generation so reconcile won't bump again.
	for {
		old := ss.expect.Load()
		if old != unseenGen && gen <= old {
			break
		}
		if ss.expect.CompareAndSwap(old, gen) {
			break
		}
	}
	return t.local.Append(keys, vals)
}

// ShardStats is the /stats snapshot of one shard of one fact.
type ShardStats struct {
	Shard        int      `json:"shard"`
	Targets      []string `json:"targets"`
	Generation   uint64   `json:"generation"` // last reconciled; 0 if unseen
	Scans        int64    `json:"scans"`
	Errors       int64    `json:"errors"`
	Redispatches int64    `json:"redispatches"`
	Fallbacks    int64    `json:"fallbacks"`
}

// TableStats describes one sharded fact.
type TableStats struct {
	Fact   string       `json:"fact"`
	Level  string       `json:"shard_level"`
	Shards []ShardStats `json:"shards"`
}

// Stats is the coordinator's /stats snapshot.
type Stats struct {
	Policy      string       `json:"policy"`
	Fanouts     int64        `json:"fanouts"`
	Partials    int64        `json:"partials_served"`
	Unavailable int64        `json:"unavailable"`
	Tables      []TableStats `json:"tables"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Policy:      c.cfg.Policy.String(),
		Fanouts:     c.fanouts.Load(),
		Partials:    c.partials.Load(),
		Unavailable: c.unavailable.Load(),
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.tables[name]
		ts := TableStats{Fact: name, Level: t.local.Schema.LevelName(t.level)}
		for s, ss := range t.shards {
			gen := ss.expect.Load()
			if gen == unseenGen {
				gen = 0
			}
			targets := make([]string, len(ss.clients))
			for i, cl := range ss.clients {
				targets[i] = cl.Target()
			}
			ts.Shards = append(ts.Shards, ShardStats{
				Shard:        s,
				Targets:      targets,
				Generation:   gen,
				Scans:        ss.scans.Load(),
				Errors:       ss.errors.Load(),
				Redispatches: ss.redispatches.Load(),
				Fallbacks:    ss.fallbacks.Load(),
			})
		}
		st.Tables = append(st.Tables, ts)
	}
	return st
}

var _ engine.ScanBatcher = (*Coordinator)(nil)
