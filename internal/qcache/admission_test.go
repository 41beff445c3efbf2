package qcache_test

import (
	"context"
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
// stored when its key's previous successful evaluation was at the same
// catalog generation and no row has been appended since under the
// members its get reads: a key whose get reads the whole fact is never
// stored across an append. It is served until a Do finds it stale: under
// another catalog generation, or after a row under the members its get
// reads. Served across rows elsewhere, it counts as kept and is
// restamped. The budget holds every result, so nothing is evicted.
//
// Half the calls track a Body, as a server does, and model the base rule
// too: such a call whose key's previous evaluation was overlapped by an
// append at the same generation stores its result as a base, and hands
// it a Base; a later tracked call that finds the base stale only by an
// overlapping append is handed it (Body.Base) instead of dropping it, and
// stores its own result as the next base, and one that finds it valid
// hits it and is handed it too.
func TestSecondSightModel(t *testing.T) {
	cube := fakeResult(t, 1).Cube
	boom := errors.New("boom")
	type stored struct {
		gen, ver uint64
		res      *exec.Result
		base     qcache.Base // kept with the entry by a tracked call
	}
	var kept, bases int64
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
		seen := map[qcache.Key]stored{} // each key's last successful evaluation
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
			tracked := rng.Intn(2) == 0
			ctx, body := context.Background(), (*qcache.Body)(nil)
			if tracked {
				ctx, body = qcache.TrackBody(ctx)
			}
			res := &exec.Result{Cube: cube}
			got, state, err := c.DoContext(ctx, key, stampOf(i), func() (*exec.Result, error) {
				if fails {
					return nil, boom
				}
				return res, nil
			})
			// A miss is bound to an entry only when it stored a base; its
			// reply hands it a Base. (Hits keep no rows here.)
			handed := body.Base()
			kept := &keptRows{64}
			based := state == qcache.StateMiss && body.Based()
			if based && !body.KeepBase(kept) {
				t.Fatalf("seed %d step %d: a reply could not keep its base", seed, step)
			}

			ver := f.Version()
			wantState, wantRes, wantErr, wantBase := qcache.StateMiss, res, error(nil), qcache.Base(nil)
			if e, ok := entries[key]; ok && e.gen == gen && !touched(i, e.ver) {
				wantState, wantRes = qcache.StateHit, e.res
				if tracked {
					wantBase = e.base // a hit on a base is encoded against it
				}
				want.Hits++
				if e.ver != ver {
					want.Kept++
					entries[key] = stored{gen, ver, e.res, e.base}
				}
			} else {
				if tracked && ok && e.base != nil && e.gen == gen {
					wantBase = e.base
					want.Bases++
				}
				delete(entries, key) // stale, or absent
				want.Misses++
				s, ok := seen[key]
				overlapped := ok && s.gen == gen && touched(i, s.ver)
				switch {
				case fails:
					wantRes, wantErr = nil, boom
				case ok && s.gen == gen && !overlapped:
					entries[key] = stored{gen, ver, res, nil}
				case tracked && (overlapped || wantBase != nil):
					entries[key] = stored{gen, ver, res, kept}
				default:
					want.Deferred++
				}
				if !fails {
					seen[key] = stored{gen: gen, ver: ver}
				}
			}
			want.Entries = int64(len(entries))

			if e, ok := entries[key]; state != wantState || got != wantRes || !errors.Is(err, wantErr) || handed != wantBase ||
				based != (wantState == qcache.StateMiss && ok && e.base != nil) {
				t.Fatalf("seed %d step %d: Do = (%p, %q, %v) handed base %v, stored a base %v; want (%p, %q, %v) and base %v",
					seed, step, got, state, err, handed, based, wantRes, wantState, wantErr, wantBase)
			}
			st := c.Stats()
			if st.Hits != want.Hits || st.Misses != want.Misses || st.Deferred != want.Deferred || st.Kept != want.Kept ||
				st.Entries != want.Entries || st.Bases != want.Bases {
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
		bases += want.Bases
	}
	if kept == 0 || bases == 0 {
		t.Fatalf("%d entries kept across an append, %d bases handed over: the traces miss a rule", kept, bases)
	}

	// A writer appending into February between every two reads: the key
	// whose get reads the whole fact is never stored for an untracked
	// caller, each of its evaluations deferred, while the key sliced on
	// May is admitted on its second sighting and then hit across the
	// appends. The same whole-fact statement from a caller that tracks a
	// Body is stored as a base from its second evaluation on, and each
	// evaluation after that is handed the one before.
	c := qcache.New(1 << 20)
	f, appendRow := salesFact(t)
	var whole, tracked, may qcache.Key
	whole[0], tracked[0], may[0] = 1, 3, 2
	var prev qcache.Base
	for step := 1; step <= 4; step++ {
		appendRow("1996-02-10")
		deferred := c.Stats().Deferred
		if _, state, _ := c.Do(whole, stampOf(read(f, nil)), func() (*exec.Result, error) { return fakeResult(t, 1), nil }); state != qcache.StateMiss {
			t.Fatalf("step %d: whole-fact key %q, want a miss", step, state)
		}
		if st := c.Stats(); st.Deferred != deferred+1 || c.Peek(whole, stampOf(read(f, nil))) {
			t.Fatalf("step %d: whole-fact key stored across an append it overlaps (%+v)", step, st)
		}
		_, state, _ := c.Do(may, stampOf(read(f, months(t, f, "1996-05"))), func() (*exec.Result, error) { return fakeResult(t, 1), nil })
		if want := map[bool]qcache.State{true: qcache.StateMiss, false: qcache.StateHit}[step <= 2]; state != want {
			t.Fatalf("step %d: May key %q, want %q", step, state, want)
		}

		ctx, body := qcache.TrackBody(context.Background())
		if _, state, _ := c.DoContext(ctx, tracked, stampOf(read(f, nil)), func() (*exec.Result, error) { return fakeResult(t, 1), nil }); state != qcache.StateMiss {
			t.Fatalf("step %d: tracked whole-fact key %q, want a miss", step, state)
		}
		base := body.Base()
		if want := map[bool]qcache.Base{true: nil, false: prev}[step <= 2]; base != want || body.Based() != (step > 1) {
			t.Fatalf("step %d: tracked whole-fact key handed base %v (want %v), stored a base %v", step, base, want, body.Based())
		}
		kept := &keptRows{64}
		if step > 1 && !body.KeepBase(kept) {
			t.Fatalf("step %d: the base kept nothing", step)
		}
		prev = kept
	}
	if st := c.Stats(); st.Deferred != 6 || st.Entries != 2 || st.Kept != 2 || st.Bases != 2 {
		t.Fatalf("stats %+v, want 6 deferred (4 whole, 1 tracked, 1 May), 2 entries, 2 kept hits, 2 bases", st)
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
