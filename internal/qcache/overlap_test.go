package qcache_test

import (
	"context"
	"testing"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
)

// salesFact is an empty resident fact over the sales schema, and a
// function appending one row to it on a date ("1997-03-10").
func salesFact(t *testing.T) (*storage.FactTable, func(date string)) {
	t.Helper()
	s := sales.Schema()
	f := storage.NewFactTable(s)
	return f, func(date string) {
		t.Helper()
		id, ok := s.Hiers[0].Dict(0).Lookup(date)
		if !ok {
			t.Fatalf("no date %s", date)
		}
		if err := f.Append([]int32{id, 0, 0, 0}, []float64{1, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// months is the predicate month ∈ names over a sales fact.
func months(t *testing.T, f *storage.FactTable, names ...string) []engine.Predicate {
	t.Helper()
	ref := mdm.LevelRef{Hier: 0, Level: 1}
	p := engine.Predicate{Level: ref}
	for _, n := range names {
		id, ok := f.Schema.Dict(ref).Lookup(n)
		if !ok {
			t.Fatalf("no month %s", n)
		}
		p.Members = append(p.Members, id)
	}
	return []engine.Predicate{p}
}

// read is the share of a stamp of gets on f, each under its predicates
// (nil: the whole fact): it watches their levels and then loads f's
// version, as core does.
func read(f *storage.FactTable, gets ...[]engine.Predicate) qcache.Read {
	for _, get := range gets {
		for _, p := range get {
			f.Watch(p.Level)
		}
	}
	return qcache.Read{Fact: f, Version: f.Version(), Gets: gets}
}

// stampOf stamps an answer at catalog generation 1.
func stampOf(reads ...qcache.Read) qcache.Stamp { return qcache.Stamp{Gen: 1, Reads: reads} }

// probe runs key at the stamp with a traced context and reports the
// state and the cache.probe note.
func probe(t *testing.T, c *qcache.Cache, key qcache.Key, st qcache.Stamp) (qcache.State, string) {
	t.Helper()
	ctx, tr := obsv.NewTrace(context.Background(), "stmt")
	res := fakeResult(t, 1)
	_, state, err := c.DoContext(ctx, key, st, func() (*exec.Result, error) { return res, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Finish().Children {
		if sp.Name == "cache.probe" {
			return state, sp.Note
		}
	}
	t.Fatal("no cache.probe span")
	return state, ""
}

// warmAt stores key's answer at the stamp: a sighting, then the stored
// evaluation.
func warmAt(t *testing.T, c *qcache.Cache, key qcache.Key, st func() qcache.Stamp) {
	t.Helper()
	for range 2 {
		if state, _ := probe(t, c, key, st()); state != qcache.StateMiss {
			t.Fatalf("warming %x…: %q, want miss", key[:1], state)
		}
	}
	if !c.Peek(key, st()) {
		t.Fatalf("warming %x…: nothing stored", key[:1])
	}
}

// TestAppendToOtherFactKeeps: an entry that read only the budget fact is
// untouched by rows appended to the target fact, and one that read the
// target under a month is kept across rows in other months.
func TestAppendToOtherFactKeeps(t *testing.T) {
	c := qcache.New(1 << 20)
	target, appendTarget := salesFact(t)
	budget, _ := salesFact(t)
	appendTarget("1996-01-05")

	budgetOnly := func() qcache.Stamp { return stampOf(read(budget, nil)) }
	jan := func() qcache.Stamp { return stampOf(read(target, months(t, target, "1996-01"))) }
	warmAt(t, c, testKey(1, 0), budgetOnly)
	warmAt(t, c, testKey(2, 0), jan)

	for _, d := range []string{"1997-12-01", "1997-12-02", "1996-02-28"} {
		appendTarget(d)
	}
	if state, note := probe(t, c, testKey(1, 0), budgetOnly()); state != qcache.StateHit || note != "hit" {
		t.Fatalf("budget-only entry after target appends: %q %q, want a plain hit", state, note)
	}
	if !c.Peek(testKey(2, 0), jan()) {
		t.Fatal("Peek: the January entry does not hold across appends to other months")
	}
	if state, note := probe(t, c, testKey(2, 0), jan()); state != qcache.StateHit || note != "kept" {
		t.Fatalf("January entry after appends to other months: %q %q, want kept", state, note)
	}
	// Restamped: the next probe has no append to look past.
	if state, note := probe(t, c, testKey(2, 0), jan()); state != qcache.StateHit || note != "hit" {
		t.Fatalf("January entry again: %q %q, want a plain hit", state, note)
	}
	if st := c.Stats(); st.Kept != 1 || st.Hits != 3 {
		t.Fatalf("stats %+v, want 3 hits, 1 kept", st)
	}

	appendTarget("1996-01-20")
	if c.Peek(testKey(2, 0), jan()) {
		t.Fatal("Peek: the January entry holds across a January row")
	}
	if state, note := probe(t, c, testKey(2, 0), jan()); state != qcache.StateMiss || note != "stale" {
		t.Fatalf("January entry after a January row: %q %q, want stale", state, note)
	}
}

// TestAdvanceVersionDropsEveryEntry: a version bump without rows touches
// the whole fact, so every entry that read it is stale, however narrow
// its gets; an entry over another fact is not.
func TestAdvanceVersionDropsEveryEntry(t *testing.T) {
	c := qcache.New(1 << 20)
	f, appendRow := salesFact(t)
	other, _ := salesFact(t)
	appendRow("1996-01-05")
	stamps := []func() qcache.Stamp{
		func() qcache.Stamp { return stampOf(read(f, nil)) },
		func() qcache.Stamp { return stampOf(read(f, months(t, f, "1996-03"))) },
		func() qcache.Stamp {
			return stampOf(read(f, months(t, f, "1997-06"), months(t, f, "1997-02", "1997-03")), read(other, nil))
		},
	}
	for i, st := range stamps {
		warmAt(t, c, testKey(byte(i), 1), st)
	}
	otherOnly := func() qcache.Stamp { return stampOf(read(other, nil)) }
	warmAt(t, c, testKey(9, 1), otherOnly)

	f.AdvanceVersion(1)
	for i, st := range stamps {
		if c.Peek(testKey(byte(i), 1), st()) {
			t.Errorf("entry %d holds across AdvanceVersion", i)
		}
		if state, note := probe(t, c, testKey(byte(i), 1), st()); state != qcache.StateMiss || note != "stale" {
			t.Errorf("entry %d after AdvanceVersion: %q %q, want stale", i, state, note)
		}
	}
	if state, _ := probe(t, c, testKey(9, 1), otherOnly()); state != qcache.StateHit {
		t.Errorf("entry over another fact after AdvanceVersion: %q, want hit", state)
	}
}

// TestPastEntryDroppedByBenchmarkMonth: a past-4 answer reads its target
// month and its four benchmark months. A row after all of them keeps it;
// a row in one benchmark month drops it.
func TestPastEntryDroppedByBenchmarkMonth(t *testing.T) {
	c := qcache.New(1 << 20)
	f, appendRow := salesFact(t)
	appendRow("1997-06-01")
	past := func() qcache.Stamp {
		return stampOf(read(f, months(t, f, "1997-06"), months(t, f, "1997-02", "1997-03", "1997-04", "1997-05")))
	}
	warmAt(t, c, testKey(4, 4), past)
	appendRow("1997-09-14")
	if state, note := probe(t, c, testKey(4, 4), past()); state != qcache.StateHit || note != "kept" {
		t.Fatalf("past entry after a later row: %q %q, want kept", state, note)
	}
	appendRow("1997-03-10")
	if state, note := probe(t, c, testKey(4, 4), past()); state != qcache.StateMiss || note != "stale" {
		t.Fatalf("past entry after a row in a benchmark month: %q %q, want stale", state, note)
	}
}

// TestNewerCallerDoesNotJoinOlderLeader: a caller whose stamp saw an
// append that the in-flight leader's did not evaluates for itself, even
// when the append does not overlap; a caller at the leader's stamp joins.
func TestNewerCallerDoesNotJoinOlderLeader(t *testing.T) {
	c := qcache.New(1 << 20)
	joined := joinSignal(c, 1)
	f, appendRow := salesFact(t)
	key := testKey(7, 7)
	st := func() qcache.Stamp { return stampOf(read(f, months(t, f, "1996-01"))) }
	leaderRes, newerRes := fakeResult(t, 1), fakeResult(t, 2)

	older := st()
	started, hold := make(chan struct{}), make(chan struct{})
	leaderDone, joinerDone := make(chan *exec.Result), make(chan *exec.Result)
	go func() {
		res, _, _ := c.Do(key, older, func() (*exec.Result, error) {
			close(started)
			<-hold
			return leaderRes, nil
		})
		leaderDone <- res
	}()
	<-started
	go func() {
		res, _, _ := c.Do(key, older, func() (*exec.Result, error) {
			t.Error("a caller at the leader's stamp evaluated")
			return nil, nil
		})
		joinerDone <- res
	}()
	<-joined

	appendRow("1997-12-01") // disjoint from the get, but a newer version
	res, state, err := c.Do(key, st(), func() (*exec.Result, error) { return newerRes, nil })
	if err != nil || state != qcache.StateMiss || res != newerRes {
		t.Fatalf("newer caller = (%p, %q, %v), want its own evaluation %p", res, state, err, newerRes)
	}
	close(hold)
	if got := <-leaderDone; got != leaderRes {
		t.Fatalf("leader got %p, want %p", got, leaderRes)
	}
	if got := <-joinerDone; got != leaderRes {
		t.Fatalf("joiner got %p, want the leader's %p", got, leaderRes)
	}
	if st := c.Stats(); st.DedupJoins != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 1 join and 2 evaluations", st)
	}
}
