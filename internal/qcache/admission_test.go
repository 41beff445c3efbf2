package qcache_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/qcache"
)

// TestSecondSightModel replays random Do traces over a few keys, while
// the catalog generation advances now and then, rows are appended to the
// fact the keys read, and some evaluations fail, and holds the cache to a
// plain-map statement of the admission and validity rules. A result is
// stored when its key was evaluated successfully before at the same
// catalog generation, whatever was appended in between. It is served
// until a Do finds it stale: under another catalog generation, or after
// a row under the members its get reads (every row, for a key whose get
// reads the whole fact). Served across rows elsewhere, it counts as kept
// and is restamped. The budget holds every result, so nothing is evicted.
func TestSecondSightModel(t *testing.T) {
	cube := fakeResult(t, 1).Cube
	boom := errors.New("boom")
	type sighting struct {
		key qcache.Key
		gen uint64
	}
	type stored struct {
		gen, ver uint64
		res      *exec.Result
	}
	var kept int64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := qcache.New(1 << 20)
		f, appendRow := salesFact(t)
		monthDict := f.Schema.Dict(mdm.LevelRef{Hier: 0, Level: 1})
		keys := make([]qcache.Key, 2+rng.Intn(4))
		gets := make([][]engine.Predicate, len(keys))
		for i := range keys {
			rng.Read(keys[i][:])
			keys[i][0] = byte(i) // one ghost slot per key: the reference has no collisions
			if rng.Intn(4) > 0 {
				// A month set among the first four of 1996; the rest reads all.
				p := engine.Predicate{Level: mdm.LevelRef{Hier: 0, Level: 1}}
				for m := range int32(4) {
					if rng.Intn(2) == 0 {
						p.Members = append(p.Members, m)
					}
				}
				gets[i] = []engine.Predicate{p}
			}
		}
		var rowMonths []int32 // rowMonths[v-1] is the month of the row that brought the fact to version v
		touched := func(i int, since uint64) bool {
			for _, m := range rowMonths[since:] {
				if gets[i] == nil || slices.Contains(gets[i][0].Members, m) {
					return true
				}
			}
			return false
		}
		seen := map[sighting]bool{}
		entries := map[qcache.Key]stored{}
		var want qcache.Stats
		gen := uint64(1)
		for step := 0; step < 300; step++ {
			switch rng.Intn(10) {
			case 0:
				gen++
			case 1, 2:
				m := int32(rng.Intn(6))
				appendRow(monthDict.Name(m) + "-01")
				rowMonths = append(rowMonths, m)
			}
			stampOf := func(i int) qcache.Stamp {
				return qcache.Stamp{Gen: gen, Reads: []qcache.Read{read(f, gets[i])}}
			}
			i := rng.Intn(len(keys))
			key := keys[i]
			fails := rng.Intn(6) == 0
			res := &exec.Result{Cube: cube}
			got, state, err := c.Do(key, stampOf(i), func() (*exec.Result, error) {
				if fails {
					return nil, boom
				}
				return res, nil
			})

			ver := f.Version()
			wantState, wantRes, wantErr := qcache.StateMiss, res, error(nil)
			if e, ok := entries[key]; ok && e.gen == gen && !touched(i, e.ver) {
				wantState, wantRes = qcache.StateHit, e.res
				want.Hits++
				if e.ver != ver {
					want.Kept++
					entries[key] = stored{gen, ver, e.res}
				}
			} else {
				delete(entries, key) // stale, or absent
				want.Misses++
				switch s := (sighting{key, gen}); {
				case fails:
					wantRes, wantErr = nil, boom
				case seen[s]:
					entries[key] = stored{gen, ver, res}
				default:
					seen[s] = true
					want.Deferred++
				}
			}
			want.Entries = int64(len(entries))

			if state != wantState || got != wantRes || !errors.Is(err, wantErr) {
				t.Fatalf("seed %d step %d: Do = (%p, %q, %v), want (%p, %q, %v)", seed, step, got, state, err, wantRes, wantState, wantErr)
			}
			st := c.Stats()
			if st.Hits != want.Hits || st.Misses != want.Misses || st.Deferred != want.Deferred || st.Kept != want.Kept || st.Entries != want.Entries {
				t.Fatalf("seed %d step %d: stats %+v, want %+v", seed, step, st, want)
			}
			for j, k := range keys {
				e, ok := entries[k]
				if got, want := c.Peek(k, stampOf(j)), ok && e.gen == gen && !touched(j, e.ver); got != want {
					t.Fatalf("seed %d step %d: Peek = %v, want %v", seed, step, got, want)
				}
			}
		}
		kept += want.Kept
	}
	if kept == 0 {
		t.Fatal("no entry was ever kept across an append: the traces miss the rule")
	}
}

// TestGhostCollision forces keys into one ghost slot. Keys that share the
// slot but not the tag overwrite each other's ghost, so alternating
// between them defers both; a key that shares the tag too is admitted
// early, on its first evaluation. Neither is ever served the other's
// result: entries are found by the whole key.
func TestGhostCollision(t *testing.T) {
	c := qcache.New(1 << 20) // 64 slots: the slot is the low 6 bits of byte 0
	var a, b, twin qcache.Key
	a[0], a[8] = 5, 1
	b[0], b[8] = 5+64, 2    // a's slot, another tag
	twin[0], twin[8] = 5, 1 // a's slot and tag ...
	twin[31] = 9            // ... and another key
	do := func(key qcache.Key, wantState qcache.State, wantEntries int64) *exec.Result {
		t.Helper()
		res := fakeResult(t, 1)
		got, state, err := c.Do(key, at(1), func() (*exec.Result, error) { return res, nil })
		if err != nil || state != wantState || c.Stats().Entries != wantEntries {
			t.Fatalf("Do(%x…) = (%q, %v) with %d entries, want %q with %d", key[:9], state, err, c.Stats().Entries, wantState, wantEntries)
		}
		if state == qcache.StateMiss && got != res {
			t.Fatalf("Do(%x…) missed but returned another evaluation's result", key[:9])
		}
		return got
	}

	for range 3 {
		do(a, qcache.StateMiss, 0)
		do(b, qcache.StateMiss, 0)
	}
	if st := c.Stats(); st.Deferred != 6 {
		t.Fatalf("alternating keys in one slot: %+v, want all 6 evaluations deferred", st)
	}

	do(a, qcache.StateMiss, 0)
	resA := do(a, qcache.StateMiss, 1)
	resTwin := do(twin, qcache.StateMiss, 2) // admitted on a's ghost
	if got := do(a, qcache.StateHit, 2); got != resA {
		t.Fatal("a was served another key's result")
	}
	if got := do(twin, qcache.StateHit, 2); got != resTwin {
		t.Fatal("twin was served another key's result")
	}
	do(b, qcache.StateMiss, 2) // its ghost was overwritten: deferred again
	if st := c.Stats(); st.Deferred != 8 {
		t.Fatalf("stats = %+v, want 8 deferred", st)
	}
}
