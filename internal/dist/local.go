// In-process shards: the segment backend a LocalCluster registers with
// each worker. A shard is a list of its rows' positions in the
// coordinator's fact, not a copy of them; a scan reads the fact's columns
// in place at those positions (storage.RowsAt), whatever backs the fact.
package dist

import "github.com/assess-olap/assess/internal/storage"

// localShard is one in-process shard of a fact: the rows of parent at
// rows, then the rows appended to the shard since (through
// Coordinator.Append or the worker), which live in tail. The shard never
// sees rows appended to parent: like a split shard, it holds what it was
// given and what was appended to it.
type localShard struct {
	parent *storage.FactTable
	rows   []int32            // positions in parent, ascending
	tail   *storage.FactTable // resident
}

func (s *localShard) Rows() int { return len(s.rows) + s.tail.Rows() }

func (s *localShard) Append(keys []int32, vals []float64) error {
	return s.tail.Append(keys, vals)
}

// Snapshot serves the parent's blocks with the shard's rows listed in
// them, and then its tail; the engine filters both on the scan's
// predicates as it does a resident table. parent is opened without
// predicates: its blocks must hold every row for the positions to find
// theirs, so they carry the predicate-only columns too.
func (s *localShard) Snapshot(need storage.ColSet, _ []storage.LevelPred) storage.ScanSource {
	return &shardSource{
		at:   storage.RowsAt(s.parent.ScanSource(need, nil), s.rows),
		tail: s.tail.ScanSource(need, nil),
	}
}

// Info reports the borrowed rows as segment rows and the appended ones as
// the tail; a local shard has no segment files of its own.
func (s *localShard) Info() storage.SegmentInfo {
	return storage.SegmentInfo{SegmentRows: len(s.rows), TailRows: s.tail.Rows()}
}

// shardSource is one scan of a local shard: the blocks of its rows of the
// parent, then the tail's one block.
type shardSource struct {
	at, tail storage.ScanSource
}

func (s *shardSource) Rows() int   { return s.at.Rows() + s.tail.Rows() }
func (s *shardSource) Blocks() int { return s.at.Blocks() + 1 }

func (s *shardSource) BlockRows(b int) int {
	if b < s.at.Blocks() {
		return s.at.BlockRows(b)
	}
	return s.tail.Rows()
}

func (s *shardSource) Block(b int, sc *storage.BlockScratch) (storage.BlockCols, bool, error) {
	if b < s.at.Blocks() {
		return s.at.Block(b, sc)
	}
	return s.tail.Block(0, sc)
}

func (s *shardSource) Close() {
	s.at.Close()
	s.tail.Close()
}
