package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// TestBatcherAbandon cancels a request that waits on its batch; the call
// must return with the context error while the rest of the batch
// completes. The window never closes within the test, so no clock decides
// the outcome: the cancelled request can only leave by abandoning its
// wait (a request that waited for the batch instead would hang the test),
// and the batch can only run by filling up, abandoned slot included.
func TestBatcherAbandon(t *testing.T) {
	ds := sales.Generate(2000, 3)
	eng := engine.New()
	if err := eng.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(eng, time.Hour)
	q := engine.Query{Fact: "SALES", Group: mdm.MustGroupBy(ds.Schema, "product"), Measures: []int{0}}
	ops := []mdm.AggOp{ds.Schema.Measures[0].Op}
	names := []string{ds.Schema.Measures[0].Name}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Scan(ctx, q, ops, names); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, defaultMaxBatch) // one per healthy request
	for i := 1; i < defaultMaxBatch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := b.Scan(context.Background(), q, ops, names)
			if err == nil && c.Len() == 0 {
				err = errors.New("healthy request got an empty cube")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if st := b.Stats(); st.Abandoned != 1 || st.Batches != 1 || st.Queries != defaultMaxBatch {
		t.Fatalf("abandoned = %d, batches = %d, queries = %d; want 1, 1, %d", st.Abandoned, st.Batches, st.Queries, defaultMaxBatch)
	}
}
