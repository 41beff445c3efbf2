// Fact sharding: rows are assigned to shards by an FNV-1a hash of the
// row's member id at the shard level, after rolling the base key up to
// that level. Hashing the *member* (not the row) clusters each member's
// rows on one shard, which is what lets the coordinator route a query
// with an equality predicate on the shard hierarchy to a subset of
// shards instead of fanning out to all of them.
package dist

import (
	"fmt"
	"math"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// shardOf maps a shard-level member id to its owning shard via FNV-1a
// over the id's four little-endian bytes. Deterministic across
// processes — coordinator and workers must agree on row placement.
func shardOf(member int32, n int) int {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= uint32(member>>(8*i)) & 0xff
		h *= 16777619
	}
	return int(h % uint32(n))
}

// AutoShardLevel picks the default shard level for a schema: the base
// level of the hierarchy with the largest base dictionary. High
// cardinality spreads members evenly across shards; a deterministic
// choice keeps separately-started workers and coordinators in
// agreement.
func AutoShardLevel(s *mdm.Schema) mdm.LevelRef {
	best, bestLen := 0, -1
	for h, hier := range s.Hiers {
		if n := hier.Dict(0).Len(); n > bestLen {
			best, bestLen = h, n
		}
	}
	return mdm.LevelRef{Hier: best, Level: 0}
}

// SplitFact partitions f's rows into n resident shard tables sharing
// f's schema, assigning each row by the hash of its member at level; each
// shard holds its rows in f's order. It reads through the scan-source
// contract, so both resident and segment-backed facts split the same way.
func SplitFact(f *storage.FactTable, level mdm.LevelRef, n int) ([]*storage.FactTable, error) {
	return split(f, level, n, -1)
}

// FactShard returns shard i of SplitFact(f, level, n) without building
// the other shards: what a worker of an n-shard cluster keeps.
func FactShard(f *storage.FactTable, level mdm.LevelRef, n, i int) (*storage.FactTable, error) {
	if i < 0 || i >= n {
		return nil, fmt.Errorf("dist: shard %d of %d", i, n)
	}
	shards, err := split(f, level, n, i)
	if err != nil {
		return nil, err
	}
	return shards[i], nil
}

// splitChunk bounds the rows split scatters at once, and so its scratch.
const splitChunk = 1 << 16

// split builds shard only of SplitFact(f, level, n), or every shard when
// only is negative; the shards it does not build stay nil. A first pass
// over the shard key column alone counts each shard's rows, so every
// shard reserves its exact size. The second goes through the source a
// chunk at a time: it lists each shard's rows of the chunk in source
// order, gathers them column by column into one block and appends it.
func split(f *storage.FactTable, level mdm.LevelRef, n, only int) ([]*storage.FactTable, error) {
	if err := checkSplit(f, level, n); err != nil {
		return nil, err
	}
	shards := make([]*storage.FactTable, n)
	for i := range shards {
		if only < 0 || i == only {
			shards[i] = storage.NewFactTable(f.Schema)
		}
	}
	owner := owners(f.Schema, level, n)
	src := f.ScanSource(keyOnly(f, level), nil)
	counts, err := countShards(src, level, owner, n)
	src.Close()
	if err != nil {
		return nil, err
	}
	for i, sh := range shards {
		if sh != nil {
			sh.Reserve(counts[i])
		}
	}

	rows := make([][]int32, n) // per shard: its rows of the chunk
	out := storage.BlockCols{Keys: make([][]int32, f.NumHiers()), Meas: make([][]float64, f.NumMeasures())}
	src = f.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	err = storage.ForBlocks(src, func(b storage.BlockCols) error {
		for lo := 0; lo < b.Rows; lo += splitChunk {
			for i := range rows {
				rows[i] = rows[i][:0]
			}
			for r, k := range b.Keys[level.Hier][lo:min(lo+splitChunk, b.Rows)] {
				if i := owner[k]; shards[i] != nil {
					rows[i] = append(rows[i], int32(lo+r))
				}
			}
			for i, idx := range rows {
				if len(idx) == 0 {
					continue
				}
				for h, col := range b.Keys {
					out.Keys[h] = gather(out.Keys[h], col, idx)
				}
				for m, col := range b.Meas {
					out.Meas[m] = gather(out.Meas[m], col, idx)
				}
				out.Rows = len(idx)
				if err := shards[i].AppendBlock(out); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return shards, nil
}

// checkSplit refuses a split of f into n shards by level that cannot be
// made.
func checkSplit(f *storage.FactTable, level mdm.LevelRef, n int) error {
	if n < 1 {
		return fmt.Errorf("dist: cannot split into %d shards", n)
	}
	if !f.Schema.HasLevel(level) {
		return fmt.Errorf("dist: shard level out of range for schema %s", f.Schema.Name)
	}
	return nil
}

// owners maps each base key of the shard hierarchy to the shard of n that
// owns its rows: the hash of the member it rolls up to at level.
func owners(s *mdm.Schema, level mdm.LevelRef, n int) []int32 {
	member := s.Hiers[level.Hier].LevelMap(0, level.Level)
	owner := make([]int32, len(member))
	for k, m := range member {
		owner[k] = int32(shardOf(m, n))
	}
	return owner
}

// keyOnly is the column set of f's shard key column alone.
func keyOnly(f *storage.FactTable, level mdm.LevelRef) storage.ColSet {
	cols := storage.ColSet{Keys: make([]bool, f.NumHiers()), Meas: make([]bool, f.NumMeasures())}
	cols.Keys[level.Hier] = true
	return cols
}

// countShards counts the rows of src, opened on the shard key column,
// that each of the n shards owns.
func countShards(src storage.ScanSource, level mdm.LevelRef, owner []int32, n int) ([]int, error) {
	counts := make([]int, n)
	err := storage.ForBlocks(src, func(b storage.BlockCols) error {
		for _, k := range b.Keys[level.Hier] {
			counts[owner[k]]++
		}
		return nil
	})
	return counts, err
}

// gather returns col's values at rows, in dst's storage when it is large
// enough.
func gather[T any](dst, col []T, rows []int32) []T {
	if cap(dst) < len(rows) {
		dst = make([]T, len(rows), splitChunk)
	}
	dst = dst[:len(rows)]
	for j, r := range rows {
		dst[j] = col[r]
	}
	return dst
}

// ownedMembers returns, per shard, the sorted shard-level member ids it
// owns. The coordinator uses shard s's set to synthesize the fallback
// predicate that makes a local scan produce exactly shard s's partial.
func ownedMembers(s *mdm.Schema, level mdm.LevelRef, n int) [][]int32 {
	owned := make([][]int32, n)
	dict := s.Hiers[level.Hier].Dict(level.Level)
	for id := int32(0); id < int32(dict.Len()); id++ {
		sh := shardOf(id, n)
		owned[sh] = append(owned[sh], id)
	}
	return owned
}

// LocalCluster is an in-process cluster: n workers, each serving its
// hash-slice of every fact added to it. Tests, benchmarks, and the
// single-box `-cluster local:N` deployment mode build on it. Its shards
// hold no copy of the fact: each lists the positions of its rows in the
// fact it was given, the coordinator's own, and reads them there at scan
// time (localShard), so a local cluster holds each fact once.
type LocalCluster struct {
	Workers []*Worker
	n       int
}

// NewLocalCluster creates n empty in-process workers.
func NewLocalCluster(n int) *LocalCluster {
	lc := &LocalCluster{n: n}
	for i := 0; i < n; i++ {
		lc.Workers = append(lc.Workers, NewWorker())
	}
	return lc
}

// AddFact registers with each worker its shard of f by level: the rows
// SplitFact would give it, in f's order, borrowed rather than copied.
// The shards keep 4 B a row of f, their rows' positions; f must outlive
// them.
func (lc *LocalCluster) AddFact(name string, f *storage.FactTable, level mdm.LevelRef) error {
	rows, err := shardRows(f, level, lc.n)
	if err != nil {
		return err
	}
	for i, r := range rows {
		shard := &localShard{parent: f, rows: r, tail: storage.NewFactTable(f.Schema)}
		if err := lc.Workers[i].Register(name, storage.NewSegmentTable(f.Schema, shard)); err != nil {
			return err
		}
	}
	return nil
}

// shardRows lists, per shard of an n-shard split of f by level, the
// ascending positions in f of the rows it owns. A first pass over the
// shard key column counts each shard's rows, and a second fills the
// lists, which share one array of f's row count: 4 B a row in all.
func shardRows(f *storage.FactTable, level mdm.LevelRef, n int) ([][]int32, error) {
	if err := checkSplit(f, level, n); err != nil {
		return nil, err
	}
	owner := owners(f.Schema, level, n)
	src := f.ScanSource(keyOnly(f, level), nil)
	defer src.Close()
	counts, err := countShards(src, level, owner, n)
	if err != nil {
		return nil, err
	}
	if src.Rows() > math.MaxInt32 {
		return nil, fmt.Errorf("dist: %s has %d rows, past a local shard's int32 positions", f.Schema.Name, src.Rows())
	}
	all := make([]int32, src.Rows())
	rows := make([][]int32, n)
	for i, off := 0, 0; i < n; i++ {
		rows[i] = all[off : off : off+counts[i]]
		off += counts[i]
	}
	pos := int32(0)
	err = storage.ForBlocks(src, func(b storage.BlockCols) error {
		for _, k := range b.Keys[level.Hier] {
			i := owner[k]
			rows[i] = append(rows[i], pos)
			pos++
		}
		return nil
	})
	return rows, err
}

// Clients returns one single-replica client chain per shard.
func (lc *LocalCluster) Clients() [][]ShardClient {
	chains := make([][]ShardClient, lc.n)
	for i, w := range lc.Workers {
		chains[i] = []ShardClient{&LocalClient{Worker: w, Name: fmt.Sprintf("local/%d", i)}}
	}
	return chains
}
