package main

import (
	"fmt"
	"math"
	"sort"
)

// checkStructure is what the smoke run and the tests assert about a
// result: the run was correct, the metrics are exactly the vocabulary of
// their kind, finite, with the right unit, and the span trees of a
// traced run are well formed. Nothing here depends on how long anything
// took.
func checkStructure(res *runResult) error {
	if !res.Correct {
		return fmt.Errorf("%d of %d statements failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics, vocabulary has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is missing", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if !res.Trace {
		for _, d := range defs {
			if res.Metrics[d.name].Value <= 0 {
				return fmt.Errorf("end-to-end metric %s is %v, must be positive", d.name, res.Metrics[d.name].Value)
			}
		}
		return nil
	}
	var shares float64
	for _, row := range res.Ledger {
		shares += row.Share
	}
	if math.Abs(shares-1) > 1e-6 {
		return fmt.Errorf("ledger shares sum to %v, not 1", shares)
	}
	return checkSpanTrees(res.spans)
}

// checkSpanTrees verifies, for every traced statement, that the clocked
// spans nest (stmt ⊇ server.handler ⊇ every seam span, dist.scan ⊇ its
// shards), that the coordinator scans of a statement follow one another
// without overlap, and that what the program reported for exec fits
// inside the handler.
func checkSpanTrees(all []span) error {
	byStmt := byStatement(all)
	if len(byStmt) == 0 {
		return fmt.Errorf("traced run recorded no spans")
	}
	inside := func(in, out span) bool { return in.StartUs >= out.StartUs && in.EndUs <= out.EndUs }
	for stmt, spans := range byStmt {
		var root, handler *span
		var scans []span
		for i, s := range spans {
			if s.dur() < 0 {
				return fmt.Errorf("statement %d: span %s has negative duration", stmt, s.Name)
			}
			switch s.Name {
			case spanStmt:
				if root != nil {
					return fmt.Errorf("statement %d has two stmt spans", stmt)
				}
				root = &spans[i]
			case spanHandler:
				if handler != nil {
					return fmt.Errorf("statement %d has two handler spans", stmt)
				}
				handler = &spans[i]
			case spanDistScan:
				scans = append(scans, s)
			}
		}
		if root == nil || handler == nil {
			return fmt.Errorf("statement %d lacks its stmt or server.handler span", stmt)
		}
		if !inside(*handler, *root) {
			return fmt.Errorf("statement %d: server.handler is not inside stmt", stmt)
		}
		sort.Slice(scans, func(i, j int) bool { return scans[i].StartUs < scans[j].StartUs })
		for i := 1; i < len(scans); i++ {
			if scans[i].StartUs < scans[i-1].EndUs {
				return fmt.Errorf("statement %d: dist.scan spans overlap", stmt)
			}
		}
		for _, s := range spans {
			switch {
			case s.Name == spanExecTotal && s.dur() > handler.dur():
				return fmt.Errorf("statement %d: exec.total %vus exceeds server.handler %vus", stmt, s.dur(), handler.dur())
			case s.Derived || s.Name == spanStmt || s.Name == spanHandler:
			case !inside(s, *handler):
				return fmt.Errorf("statement %d: %s is not inside server.handler", stmt, s.Name)
			case s.Name == spanShard:
				found := false
				for _, sc := range scans {
					found = found || inside(s, sc)
				}
				if !found {
					return fmt.Errorf("statement %d: dist.shard is not inside a dist.scan", stmt)
				}
			}
		}
	}
	return nil
}
