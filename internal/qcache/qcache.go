// Package qcache is the query-result cache in front of plan execution:
// the serving-layer counterpart of the engine's materialized views. The
// paper's prototype leans on Oracle so that interactive assess sessions —
// an analyst re-running near-identical statements while drilling around a
// cube — pay aggregate-sized costs rather than fact-scan costs; qcache
// closes the remaining gap by memoizing finished execution results keyed
// by a canonical fingerprint of the bound logical plan.
//
// The cache is one LRU under one byte budget (a budget in MiB bounds
// resident results, not entry counts), a singleflight layer (N concurrent
// identical statements run one evaluation and share the result), and
// invalidation by overlap: every entry is stamped with what its
// evaluation read (Stamp), taken before the evaluation started — the
// catalog generation, and the version of each fact the plan's gets read
// with the predicates they read it under. A lookup under another catalog
// generation finds the entry stale. So does one after an append that
// may have added a row to one of its gets: for each fact whose version
// moved, every get on it must have a predicate none of whose members
// gained a row since the stamp (storage.FactTable.TouchedSince), or the
// entry is evicted. An entry that passes outlived the append, is kept
// and restamped (Stats.Kept). Two cube regions disjoint on some
// hierarchy cannot affect each other (Vassiliadis).
//
// Admission is rent-or-buy, as for the engine's views: a result is stored
// only when its statement is evaluated for the second time at one
// catalog generation. The first evaluation leaves a ghost — a
// fingerprint of key and catalog generation — in a small direct-mapped
// table (the doorkeeper of TinyLFU, Einziger et al.) and stores nothing,
// so traffic that never repeats keeps no results. Fact versions are not
// in the ghost: a statement seen before an append is admitted after it,
// whether or not the append overlaps it. The price is one evaluation: a
// statement's first repeat is a miss too, and its third run hits.
// Ghosts are only hints — entries are still found by the whole Key — so
// two keys sharing a slot can defer each other's admission, or admit one
// early, but never serve each other's result. Singleflight joiners do not
// evaluate and leave no ghost.
//
// An entry can also keep the encoded rows its result is served as (Body):
// the bytes the reply of the entry's first hit streamed after its header,
// handed over once that reply completed, charged to the same budget and
// dropped with the entry. Rows are kept, like results, once reuse is
// shown: the result at its second evaluation, its rows at its first hit,
// so traffic that never hits keeps results the size of their cubes, not
// of their rows. The rows take the place of the result's cube, so only
// callers that track a Body are served from such an entry; for everyone
// else it is a miss, and the evaluation replaces it.
//
// Cached *exec.Result values and rows are shared between callers and must
// be treated as read-only.
package qcache

import (
	"container/list"
	"context"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/storage"
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

// Stamp is what an answer was read from, taken before its evaluation
// starts: Gen, the catalog generation (registered cubes, materialized
// views and the session's functions and labelers), and one Read per fact
// the plan's gets read. A Stamp with no Reads depends on the generation
// alone.
type Stamp struct {
	Gen   uint64
	Reads []Read
}

// Read is one fact's share of a Stamp: the fact's version when the
// stamp was taken, which must be loaded before the evaluation's scans
// take their snapshots, and the predicates of each get on the fact. A
// get with no predicate reads the whole fact.
type Read struct {
	Fact    *storage.FactTable
	Version uint64
	Gets    [][]engine.Predicate
}

// holds reports whether an answer stamped at e still holds for a caller
// stamped at now, which read the same facts (same Key): the catalog
// generation is the same and, for every fact whose version moved past
// e's, each get on the fact has a predicate whose members gained no row
// since e's version. moved reports a fact that did move, so the answer
// outlived an append. A fact's marks are loaded after now's version, so
// every row that version counts is seen (storage.FactTable.publish).
func holds(e, now *Stamp) (ok, moved bool) {
	if e.Gen != now.Gen || len(e.Reads) != len(now.Reads) {
		return false, false
	}
	for i := range e.Reads {
		r := &e.Reads[i]
		if r.Fact != now.Reads[i].Fact {
			return false, false
		}
		if now.Reads[i].Version <= r.Version {
			continue
		}
		for _, get := range r.Gets {
			if !spared(r, get) {
				return false, false
			}
		}
		moved = true
	}
	return true, moved
}

// spared reports whether a get under preds reads no row added to r.Fact
// since r.Version: some predicate's members gained none.
func spared(r *Read, preds []engine.Predicate) bool {
	for _, p := range preds {
		if !r.Fact.TouchedSince(r.Version, p.Level, p.Members) {
			return true
		}
	}
	return false
}

// same reports whether two stamps of one Key saw the same catalog and
// the same fact versions.
func (s *Stamp) same(o *Stamp) bool {
	return s.Gen == o.Gen && slices.EqualFunc(s.Reads, o.Reads, func(a, b Read) bool {
		return a.Fact == b.Fact && a.Version == b.Version
	})
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	DedupJoins int64 `json:"dedupJoins"`
	// Rejected counts results that were evaluated but not cached because
	// one alone exceeds the budget; Deferred counts those not cached
	// because their key had not been evaluated before at the catalog
	// generation.
	Rejected int64 `json:"rejected"`
	Deferred int64 `json:"deferred"`
	// Kept counts hits on an entry that outlived an append to a fact it
	// read, because the append added no row to any of its gets.
	Kept    int64 `json:"kept"`
	Entries int64 `json:"entries"`
	// Bytes is what the entries hold, results and encoded rows; BodyBytes
	// is the rows' share of it.
	Bytes       int64 `json:"bytes"`
	BodyBytes   int64 `json:"bodyBytes"`
	BudgetBytes int64 `json:"budgetBytes"`
}

// entry is one cached result.
type entry struct {
	key   Key
	stamp Stamp // its own Reads: a kept entry's versions move forward
	size  int64 // res plus body, as charged to the budget
	// res is the result as evaluated, until body takes the place of its
	// cube: from then on res is a copy that keeps the plan and the timings
	// and has no Cube, and cells remembers how many cells there were.
	res   *exec.Result
	cells int
	body  []byte // the encoded rows, once a reply kept them (Body.Keep)
	unfit bool   // a reply found they do not fit the budget
}

// call is one in-flight evaluation that concurrent identical statements
// join instead of re-evaluating. stamp pins the catalog generation and
// fact versions the leader observed; a caller that observed others does
// not join it.
type call struct {
	done  chan struct{}
	stamp *Stamp
	res   *exec.Result
	err   error
}

// Cache is an LRU over finished execution results. One mutex guards all
// of it: a probe is a map lookup and a list splice, far shorter than the
// parse and bind every statement does before it gets here.
type Cache struct {
	mu       sync.Mutex
	lru      *list.List // front = most recent; values are *entry
	index    map[Key]*list.Element
	inflight map[Key]*call
	ghosts   []uint64 // the doorkeeper: per slot, the tag of its last evaluation
	stats    Stats    // BudgetBytes is fixed; the rest moves under mu

	onJoin func() // test hook: a caller is about to wait on an in-flight call
}

// Ghost slots: one per ghostSpan bytes of budget (4 096, 32 KiB of tags,
// at DefaultMaxBytes), at least minGhosts, rounded up to a power of two.
const (
	ghostSpan = 16 << 10
	minGhosts = 64
)

// New builds a cache with the given total byte budget; a non-positive
// budget selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	slots := max(maxBytes/ghostSpan, minGhosts)
	return &Cache{
		lru:      list.New(),
		index:    make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
		ghosts:   make([]uint64, 1<<bits.Len64(uint64(slots-1))),
		stats:    Stats{BudgetBytes: maxBytes},
	}
}

// Do returns the cached result for key if one still holds at the
// caller's stamp; otherwise it evaluates. Concurrent Do calls for the
// same key at the same stamp run eval exactly once and share the result.
// An entry that no longer holds is stale. Errors are not cached.
func (c *Cache) Do(key Key, st Stamp, eval func() (*exec.Result, error)) (*exec.Result, State, error) {
	return c.DoContext(context.Background(), key, st, eval)
}

// DoContext is Do, emitting "cache.probe" and "cache.store" trace spans
// when the context carries a trace (obsv.NewTrace). The probe span notes
// the outcome: "hit", "hit bytes" (the entry holds its encoded rows),
// "kept" (a hit on an entry that outlived an append it does not
// overlap), "miss", "stale" (entry invalidated by another catalog
// generation or an overlapping append), "rows only" (entry without a
// cube, of no use to a caller that tracks no Body) or "join" (waited on
// a concurrent identical evaluation).
//
// When the context tracks a Body (TrackBody), the entry a hit found is
// bound to it, and the hit may return a result whose Cube is nil: the
// Body then has the rows and the cell count.
func (c *Cache) DoContext(ctx context.Context, key Key, st Stamp, eval func() (*exec.Result, error)) (*exec.Result, State, error) {
	_, probe := obsv.StartSpan(ctx, "cache.probe")
	body, _ := ctx.Value(bodyKey{}).(*Body)
	var cl *call
	for cl == nil {
		c.mu.Lock()
		if el, ok := c.index[key]; ok {
			e := el.Value.(*entry)
			valid, moved := holds(&e.stamp, &st)
			switch {
			case !valid:
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
				if moved {
					// Valid at the caller's versions too: the next probe
					// need not look at the marks again.
					for i, r := range st.Reads {
						e.stamp.Reads[i].Version = max(e.stamp.Reads[i].Version, r.Version)
					}
					c.stats.Kept++
					note = "kept"
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
		if lead, ok := c.inflight[key]; ok && lead.stamp.same(&st) {
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
		cl = &call{done: make(chan struct{}), stamp: &st}
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
		_, sp := obsv.StartSpan(ctx, "cache.store")
		c.store(key, res, st)
		sp.End()
	}
	return res, StateMiss, err
}

// Peek reports whether an entry for key holds at the stamp, by the rule
// DoContext applies, without perturbing counters, recency, stamps or
// in-flight calls.
func (c *Cache) Peek(key Key, st Stamp) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return false
	}
	ok, _ = holds(&el.Value.(*entry).stamp, &st)
	return ok
}

// store inserts the result at the front of the LRU and evicts from its
// tail until the cache is within budget. A result larger than the whole
// budget is not cached and counts as rejected; one whose key was not
// evaluated before at the stamp's catalog generation is not cached and
// counts as deferred.
func (c *Cache) store(key Key, res *exec.Result, st Stamp) {
	st.Reads = slices.Clone(st.Reads)
	e := &entry{key: key, res: res, stamp: st, size: resultBytes(res), cells: res.Cube.Len()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.size > c.stats.BudgetBytes {
		c.stats.Rejected++
		return
	}
	if !c.seen(key, st.Gen) {
		c.stats.Deferred++
		return
	}
	if el, ok := c.index[key]; ok {
		c.remove(el) // replaced by a fresher evaluation
	}
	el := c.lru.PushFront(e)
	c.index[key] = el
	c.stats.Entries++
	c.stats.Bytes += e.size
	c.evictFor(el)
}

// seen reports whether key's ghost at catalog generation gen is in its
// slot, and leaves it there; c.mu must be held. The slot comes from the
// key's first eight bytes and the tag from the next eight mixed with the
// generation, so a newer generation finds every older ghost stale; fact
// versions are not mixed in, so an append does not. Tags are odd: an
// empty slot matches none.
func (c *Cache) seen(key Key, gen uint64) bool {
	slot := &c.ghosts[binary.LittleEndian.Uint64(key[:8])&uint64(len(c.ghosts)-1)]
	tag := (binary.LittleEndian.Uint64(key[8:16]) ^ gen*0x9e3779b97f4a7c15) | 1
	if *slot == tag {
		return true
	}
	*slot = tag
	return false
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

// Body is one request's handle on the cache entry its statement hit, for
// a caller that replies with encoded rows — a server — and so can be
// served from an entry that keeps those instead of the cube. The caller
// tracks one in the context it executes under; DoContext binds it to the
// entry a hit found. A nil Body, and one that no entry was bound to (no
// cache, a miss, a joined evaluation), has no rows and keeps none.
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

// Cells is the cell count of the entry's result, for a hit whose result
// came without its cube.
func (b *Body) Cells() int { return b.e.cells }

// Rows returns the encoded rows kept with the entry. When it keeps none
// yet, room is the most bytes of rows it could take (the budget), and
// the caller may hand over the rows it writes with Keep; room is 0 for a
// Body no entry was bound to, and for an entry whose rows do not fit.
func (b *Body) Rows() (rows []byte, room int64) {
	if b == nil || b.e == nil {
		return nil, 0
	}
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	if b.e.body != nil || b.e.unfit {
		return b.e.body, 0
	}
	return nil, b.c.stats.BudgetBytes
}

// Keep hands the entry rows, the encoded form of its result as a reply
// that completed just wrote it. They replace the result's cube in the
// entry and are charged to it, evicting from the LRU tail as a store
// does. They are dropped, and Keep reports false, when the entry already
// keeps rows, has left the cache, or cannot fit them. Rows that cannot
// fit, and nil rows (a reply whose rows outgrew the room Rows gave it),
// leave the entry with no room, so no later reply copies them again.
func (b *Body) Keep(rows []byte) bool {
	if b == nil || b.e == nil {
		return false
	}
	c, e := b.c, b.e
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[e.key]
	if !ok || el.Value.(*entry) != e || e.body != nil {
		return false
	}
	head := *e.res
	head.Cube = nil
	size := resultBytes(&head) + int64(cap(rows))
	if rows == nil || size > c.stats.BudgetBytes {
		e.unfit = true
		return false
	}
	e.res, e.body = &head, rows
	c.stats.Bytes += size - e.size
	c.stats.BodyBytes += int64(cap(rows))
	e.size = size
	c.evictFor(el)
	return true
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// resultBytes is what a cached result keeps alive: the plan, the bound
// statement and the per-operation durations, and, unless encoded rows took
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
	size := int64(fixed) + int64(cap(r.OpTimes))*8
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
