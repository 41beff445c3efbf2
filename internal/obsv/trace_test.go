package obsv

import (
	"context"
	"testing"
	"time"
)

func TestDisabledTracingIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "parse")
	if sp != nil {
		t.Fatal("StartSpan without a trace must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without a trace must return the context unchanged")
	}
	// All methods must be nil-safe.
	sp.End()
	sp.SetRows(1, 2)
	sp.AddBytes(3)
	sp.SetNote("x")
	if FromContext(ctx) != nil {
		t.Fatal("FromContext without a trace must return nil")
	}
	var tr *Trace
	if tr.Finish() != nil || tr.Root() != nil {
		t.Fatal("nil trace methods must be nil-safe")
	}
}

func TestDisabledTracingAllocFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "parse")
		sp.End()
		sp.SetRows(10, 20)
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v times per call, want 0", allocs)
	}
}

func TestSpanTreeNesting(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "request")
	ctx1, parse := StartSpan(ctx, "parse")
	_ = ctx1
	parse.End()

	ctx2, execSp := StartSpan(ctx, "execute")
	cctx, scan := StartSpan(ctx2, "engine.scan")
	scan.SetRows(100, 10)
	scan.AddBytes(640)
	scan.End()
	_, label := StartSpan(cctx, "label")
	label.End()
	execSp.End()

	root := tr.Finish()
	if root.Name != "request" || root.Duration < 0 {
		t.Fatalf("bad root span: %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2 (parse, execute)", len(root.Children))
	}
	if root.Children[0].Name != "parse" || root.Children[1].Name != "execute" {
		t.Fatalf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	ex := root.Children[1]
	if len(ex.Children) != 1 || ex.Children[0].Name != "engine.scan" {
		t.Fatalf("execute children wrong: %+v", ex.Children)
	}
	sc := ex.Children[0]
	if sc.RowsIn != 100 || sc.RowsOut != 10 || sc.Bytes != 640 {
		t.Fatalf("scan span attrs wrong: %+v", sc)
	}
	// The label span was opened under the scan's context, so it nests
	// beneath engine.scan — nesting follows context propagation.
	if len(sc.Children) != 1 || sc.Children[0].Name != "label" {
		t.Fatalf("scan children wrong: %+v", sc.Children)
	}

	j := root.JSON()
	if j.Name != "request" || len(j.Children) != 2 || j.DurationMs < 0 {
		t.Fatalf("bad JSON tree: %+v", j)
	}
	if j.Children[1].Children[0].Bytes != 640 {
		t.Fatal("JSON lost span bytes")
	}
}

// TestChildDurationsBoundedByRoot checks the interval structure that makes
// a sequential trace's children sum to at most the root: every child lies
// inside the root's interval and starts no earlier than its predecessor
// ended. No clock is slept on and no duration is compared with a constant.
func TestChildDurationsBoundedByRoot(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "request")
	for i := 0; i < 3; i++ {
		_, sp := StartSpan(ctx, "stage")
		sp.End()
	}
	root := tr.Finish()
	if len(root.Children) != 3 {
		t.Fatalf("root has %d children, want 3", len(root.Children))
	}
	end := func(s *Span) time.Time { return s.Start.Add(s.Duration) }
	prev := root.Start
	var sum time.Duration
	for i, c := range root.Children {
		if c.Duration < 0 || c.Start.Before(prev) {
			t.Fatalf("child %d starts at %v, before its predecessor ended at %v", i, c.Start, prev)
		}
		prev = end(c)
		sum += c.Duration
	}
	if prev.After(end(root)) {
		t.Fatalf("last child ends at %v, after the root at %v", prev, end(root))
	}
	if sum > root.Duration {
		t.Fatalf("children (%v) exceed root (%v)", sum, root.Duration)
	}
}
