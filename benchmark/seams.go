package main

import (
	"context"
	"net/http"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Seam decorators: the traced run measures the layers below the engine
// from outside, by wrapping the public interfaces the engine already
// calls through. Each forwards to the wrapped value unchanged and
// records a span only while a traced statement is in flight.

// tracedHandler times the whole server trip of a statement.
func tracedHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stmt, start := rec.begin()
		next.ServeHTTP(w, r)
		if stmt >= 0 {
			rec.end(stmt, spanHandler, spanStmt, start)
		}
	})
}

// tracedBatcher times every scan the engine hands to the coordinator.
type tracedBatcher struct {
	inner engine.ScanBatcher
	rec   *recorder
}

func (b *tracedBatcher) Scan(ctx context.Context, q engine.Query, ops []mdm.AggOp, names []string) (*cube.Cube, error) {
	stmt, start := b.rec.begin()
	c, err := b.inner.Scan(ctx, q, ops, names)
	if stmt >= 0 {
		b.rec.end(stmt, spanDistScan, spanExecGet, start)
	}
	return c, err
}

// tracedShard times one shard's partial-aggregate round trip: the
// worker's scan plus the ADP1 encode and decode.
type tracedShard struct {
	dist.ShardClient
	rec *recorder
}

func (c *tracedShard) Scan(ctx context.Context, req *dist.ScanRequest, s *mdm.Schema) (uint64, *cube.Cube, error) {
	stmt, start := c.rec.begin()
	gen, pc, err := c.ShardClient.Scan(ctx, req, s)
	if stmt >= 0 {
		c.rec.end(stmt, spanShard, spanDistScan, start)
	}
	return gen, pc, err
}

// tracedBackend times Snapshot on a segment store and hands out traced
// scan sources.
type tracedBackend struct {
	storage.SegmentBackend
	rec *recorder
}

func (b *tracedBackend) Snapshot(need storage.ColSet, preds []storage.LevelPred) storage.ScanSource {
	stmt, start := b.rec.begin()
	src := b.SegmentBackend.Snapshot(need, preds)
	if stmt >= 0 {
		b.rec.end(stmt, spanSnapshot, spanExecGet, start)
	}
	return &tracedSource{ScanSource: src, rec: b.rec}
}

// tracedSource times every block decode. The engine's shared scans look
// for the optional pruning capabilities on the source by type assertion,
// so the decorator forwards both.
type tracedSource struct {
	storage.ScanSource
	rec *recorder
}

func (s *tracedSource) Block(b int, sc *storage.BlockScratch) (storage.BlockCols, bool, error) {
	// The last block is the resident WAL tail, served without decoding.
	if b < s.Blocks()-1 {
		s.rec.blockCalls.Add(1)
	}
	stmt, start := s.rec.begin()
	cols, ok, err := s.ScanSource.Block(b, sc)
	if stmt >= 0 {
		s.rec.end(stmt, spanBlock, spanExecGet, start)
	}
	return cols, ok, err
}

func (s *tracedSource) PrunedFor(b int, preds []storage.LevelPred) bool {
	if p, ok := s.ScanSource.(storage.PruneProber); ok {
		return p.PrunedFor(b, preds)
	}
	return false
}

func (s *tracedSource) PrunePlan(preds []storage.LevelPred) storage.PrunePlan {
	if p, ok := s.ScanSource.(storage.PrunePlanner); ok {
		return p.PrunePlan(preds)
	}
	return neverPruned{}
}

type neverPruned struct{}

func (neverPruned) Pruned(int) bool { return false }
