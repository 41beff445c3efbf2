// Package qcache is the query-result cache in front of plan execution:
// the serving-layer counterpart of the engine's materialized views. The
// paper's prototype leans on Oracle so that interactive assess sessions —
// an analyst re-running near-identical statements while drilling around a
// cube — pay aggregate-sized costs rather than fact-scan costs; qcache
// closes the remaining gap by memoizing finished execution results keyed
// by a canonical fingerprint of the bound logical plan.
//
// The cache is one LRU under one byte budget (a budget in MiB bounds
// resident results, not entry counts; any result that fits it is
// admitted), a singleflight layer (N concurrent identical statements run
// one evaluation and share the result), and generation-based
// invalidation: every entry is tagged with the catalog generation
// observed when its evaluation started, and a lookup under a newer
// generation treats the entry as stale, evicting it.
//
// An entry can also keep the encoded rows its result is served as (Body):
// bytes a server builds the first time the entry is hit, charged to the
// same budget and dropped with the entry. They take the place of the
// result's cube, so only callers that track a Body are served from such an
// entry; for everyone else it is a miss, and the evaluation replaces it.
//
// Cached *exec.Result values and rows are shared between callers and must
// be treated as read-only.
package qcache

import (
	"container/list"
	"context"
	"sync"

	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/obsv"
)

// State reports how a Do call was satisfied.
type State string

const (
	// StateHit: served from the cache, or joined a concurrent identical
	// evaluation (singleflight) without evaluating.
	StateHit State = "hit"
	// StateMiss: this call ran the evaluation.
	StateMiss State = "miss"
	// StateOff: no cache is configured (used by callers; Do never
	// returns it).
	StateOff State = ""
)

// DefaultMaxBytes is the default cache budget (64 MiB).
const DefaultMaxBytes = 64 << 20

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	DedupJoins int64 `json:"dedupJoins"`
	// Rejected counts results that were evaluated but not cached because
	// one alone exceeds the budget.
	Rejected int64 `json:"rejected"`
	Entries  int64 `json:"entries"`
	// Bytes is what the entries hold, results and encoded rows; BodyBytes
	// is the rows' share of it.
	Bytes       int64 `json:"bytes"`
	BodyBytes   int64 `json:"bodyBytes"`
	BudgetBytes int64 `json:"budgetBytes"`
}

// entry is one cached result.
type entry struct {
	key  Key
	gen  uint64
	size int64 // res plus body, as charged to the budget
	// res is the result as evaluated, until body takes the place of its
	// cube: from then on res is a copy that keeps the plan and the timings
	// and has no Cube, and cells remembers how many cells there were.
	res   *exec.Result
	cells int
	// bodyLen is the length of the encoded rows, known once a reply has
	// streamed them (Body.SetLen); body is those bytes, kept from the
	// first hit after that; filling marks the one caller encoding them.
	bodyLen int64
	body    []byte
	filling bool
}

// call is one in-flight evaluation that concurrent identical statements
// join instead of re-evaluating. gen pins the catalog generation the
// leader observed; a caller on a different generation does not join it.
type call struct {
	done chan struct{}
	gen  uint64
	res  *exec.Result
	err  error
}

// Cache is an LRU over finished execution results. One mutex guards all
// of it: a probe is a map lookup and a list splice, far shorter than the
// parse and bind every statement does before it gets here.
type Cache struct {
	mu       sync.Mutex
	lru      *list.List // front = most recent; values are *entry
	index    map[Key]*list.Element
	inflight map[Key]*call
	stats    Stats // BudgetBytes is fixed; the rest moves under mu

	onJoin func() // test hook: a caller is about to wait on an in-flight call
}

// New builds a cache with the given total byte budget; a non-positive
// budget selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		lru:      list.New(),
		index:    make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
		stats:    Stats{BudgetBytes: maxBytes},
	}
}

// Do returns the cached result for key if one exists at the current
// generation; otherwise it evaluates. Concurrent Do calls for the same
// (key, gen) run eval exactly once and share the result. Entries stored
// under an older generation are treated as stale. Errors are not cached.
func (c *Cache) Do(key Key, gen uint64, eval func() (*exec.Result, error)) (*exec.Result, State, error) {
	return c.DoContext(context.Background(), key, gen, eval)
}

// DoContext is Do, emitting "cache.probe" and "cache.store" trace spans
// when the context carries a trace (obsv.NewTrace). The probe span notes
// the outcome: "hit", "hit bytes" (the entry holds its encoded rows),
// "miss", "stale" (entry invalidated by a newer generation), "rows only"
// (entry without a cube, of no use to a caller that tracks no Body) or
// "join" (waited on a concurrent identical evaluation).
//
// When the context tracks a Body (TrackBody), the entry that answers the
// call, hit or freshly stored, is bound to it, and a hit may return a
// result whose Cube is nil: the Body then has the rows and the cell count.
func (c *Cache) DoContext(ctx context.Context, key Key, gen uint64, eval func() (*exec.Result, error)) (*exec.Result, State, error) {
	_, probe := obsv.StartSpan(ctx, "cache.probe")
	body, _ := ctx.Value(bodyKey{}).(*Body)
	var cl *call
	for cl == nil {
		c.mu.Lock()
		if el, ok := c.index[key]; ok {
			e := el.Value.(*entry)
			switch {
			case e.gen != gen:
				c.remove(el)
				probe.SetNote("stale")
			case e.body != nil && body == nil:
				c.remove(el)
				probe.SetNote("rows only")
			default:
				c.lru.MoveToFront(el)
				c.stats.Hits++
				res, note := e.res, "hit"
				if e.body != nil {
					note = "hit bytes"
				}
				if body != nil {
					body.c, body.e = c, e
				}
				c.mu.Unlock()
				probe.SetNote(note)
				probe.End()
				return res, StateHit, nil
			}
		}
		if lead, ok := c.inflight[key]; ok && lead.gen == gen {
			c.stats.DedupJoins++
			c.mu.Unlock()
			probe.SetNote("join")
			if c.onJoin != nil {
				c.onJoin()
			}
			select {
			case <-lead.done:
			case <-ctx.Done():
				// This waiter's own caller gave up; the leader (and any
				// other waiters) keep going undisturbed.
				probe.End()
				return nil, StateHit, ctx.Err()
			}
			if lead.err == nil && lead.res != nil {
				probe.End()
				return lead.res, StateHit, nil
			}
			// The leader failed (often: its own context was cancelled) or
			// panicked. Errors are not shared across callers: go around
			// again — typically becoming the new leader and re-evaluating.
			continue
		}
		cl = &call{done: make(chan struct{}), gen: gen}
		c.inflight[key] = cl
		c.stats.Misses++
		c.mu.Unlock()
	}
	if probe != nil && probe.Note == "" {
		probe.SetNote("miss")
	}
	probe.End()

	defer func() {
		// On success the fields were filled below; on a panic in eval the
		// zero res/err still lets waiters return instead of hanging.
		c.mu.Lock()
		if c.inflight[key] == cl {
			delete(c.inflight, key)
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	res, err := eval()
	cl.res, cl.err = res, err
	if err == nil {
		_, st := obsv.StartSpan(ctx, "cache.store")
		e := c.store(key, res, gen)
		if body != nil {
			body.c, body.e = c, e
		}
		st.End()
	}
	return res, StateMiss, err
}

// Peek reports whether a valid entry exists for key at the generation,
// without perturbing counters, recency, or in-flight calls.
func (c *Cache) Peek(key Key, gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	return ok && el.Value.(*entry).gen == gen
}

// store inserts the result at the front of the LRU and evicts from its
// tail until the cache is within budget. A result larger than the whole
// budget is not cached, counts as rejected, and store returns nil.
func (c *Cache) store(key Key, res *exec.Result, gen uint64) *entry {
	e := &entry{key: key, res: res, gen: gen, size: resultBytes(res), cells: res.Cube.Len()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.size > c.stats.BudgetBytes {
		c.stats.Rejected++
		return nil
	}
	if el, ok := c.index[key]; ok {
		c.remove(el) // replaced by a fresher evaluation
	}
	el := c.lru.PushFront(e)
	c.index[key] = el
	c.stats.Entries++
	c.stats.Bytes += e.size
	c.evictFor(el)
	return e
}

// evictFor drops least recently used entries, never keep itself, until
// the cache is within budget; c.mu must be held.
func (c *Cache) evictFor(keep *list.Element) {
	for c.stats.Bytes > c.stats.BudgetBytes {
		back := c.lru.Back()
		if back == nil || back == keep {
			return
		}
		c.remove(back)
		c.stats.Evictions++
	}
}

// remove unlinks an entry, its rows included; c.mu must be held.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.index, e.key)
	c.stats.Entries--
	c.stats.Bytes -= e.size
	c.stats.BodyBytes -= int64(cap(e.body))
}

// Body is one request's handle on the cache entry that answered it, for a
// caller that replies with encoded rows — a server — and so can be served
// from an entry that keeps those instead of the cube. The caller tracks
// one in the context it executes under; DoContext binds it to the entry
// it hit or stored. A nil Body, and one that no entry was bound to (no
// cache, a joined evaluation, a rejected result), has no rows and ignores
// SetLen.
type Body struct {
	c *Cache
	e *entry
}

type bodyKey struct{}

// TrackBody derives a context carrying a fresh Body.
func TrackBody(ctx context.Context) (context.Context, *Body) {
	b := &Body{}
	return context.WithValue(ctx, bodyKey{}, b), b
}

// SetLen records how long the encoded rows of the entry's result are, as
// measured by a reply that just streamed them: what a later hit needs to
// build them in one allocation.
func (b *Body) SetLen(n int) {
	if b == nil || b.e == nil {
		return
	}
	b.c.mu.Lock()
	b.e.bodyLen = int64(n)
	b.c.mu.Unlock()
}

// Cells is the cell count of the entry's result, for a hit whose result
// came without its cube.
func (b *Body) Cells() int { return b.e.cells }

// Rows returns the encoded rows kept with the entry, for a caller whose
// statement hit it. If the entry has none yet, knows their length n
// (SetLen) and they fit the budget, fill(res, n) is called — outside the
// lock, by one caller at a time per entry — to encode them from the
// entry's result. The bytes then replace the result's cube in the entry
// and are charged to it, evicting from the LRU tail as a store does, and
// filled is true. Nil rows tell the caller to encode the result it was
// handed: the length is not known yet, the rows cannot fit, or another
// caller is encoding them right now.
func (b *Body) Rows(fill func(res *exec.Result, n int) []byte) (rows []byte, filled bool) {
	if b == nil || b.e == nil {
		return nil, false
	}
	c, e := b.c, b.e
	c.mu.Lock()
	if e.body != nil || e.filling || e.bodyLen == 0 || e.bodyLen > c.stats.BudgetBytes {
		rows = e.body
		c.mu.Unlock()
		return rows, false
	}
	e.filling = true
	res, n := e.res, int(e.bodyLen)
	c.mu.Unlock()

	rows = fill(res, n)

	c.mu.Lock()
	defer c.mu.Unlock()
	e.filling = false
	if rows == nil {
		return nil, false
	}
	// The entry may have been evicted or invalidated while fill ran; the
	// bytes still answer this caller, they are just not kept.
	if el, ok := c.index[e.key]; ok && el.Value.(*entry) == e {
		head := *res
		head.Cube = nil
		size := resultBytes(&head) + int64(cap(rows))
		if size <= c.stats.BudgetBytes {
			e.res, e.body = &head, rows
			c.stats.Bytes += size - e.size
			c.stats.BodyBytes += int64(cap(rows))
			e.size = size
			c.evictFor(el)
		}
	}
	return rows, true
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// resultBytes is what a cached result keeps alive: the plan, the bound
// statement and the per-operation stats, and, unless encoded rows took
// its place, the cube — member-id columns, measure columns and label
// headers (label text is interned per labeler). Result
// cubes are built without an index, and nothing looks a cached one up by
// coordinate, so none is charged. TestCacheBytesFollowHeap in
// internal/core holds the sum against the heap.
func resultBytes(r *exec.Result) int64 {
	const (
		sliceHeader  = 24
		stringHeader = 16
		fixed        = 4 << 10 // Result, Plan and Bound, as measured
	)
	size := int64(fixed) + int64(len(r.OpStats))*96
	if c := r.Cube; c != nil {
		for _, col := range c.Keys {
			size += sliceHeader + heapBytes(int64(cap(col))*4)
		}
		for _, col := range c.Cols {
			size += sliceHeader + heapBytes(int64(cap(col))*8)
		}
		size += heapBytes(int64(cap(c.Labels)) * stringHeader)
	}
	return size
}

// heapBytes is what the heap spends on one allocation of n bytes: above
// 32 KiB an object takes whole 8 KiB pages. (Below, size classes waste at
// most an eighth, on slices too small to matter here.)
func heapBytes(n int64) int64 {
	const page = 8 << 10
	if n > 32<<10 {
		return (n + page - 1) / page * page
	}
	return n
}
