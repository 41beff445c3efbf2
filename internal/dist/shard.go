// Fact sharding: rows are assigned to shards by an FNV-1a hash of the
// row's member id at the shard level, after rolling the base key up to
// that level. Hashing the *member* (not the row) clusters each member's
// rows on one shard, which is what lets the coordinator route a query
// with an equality predicate on the shard hierarchy to a subset of
// shards instead of fanning out to all of them.
package dist

import (
	"fmt"

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
	if n < 1 {
		return nil, fmt.Errorf("dist: cannot split into %d shards", n)
	}
	if !f.Schema.HasLevel(level) {
		return nil, fmt.Errorf("dist: shard level out of range for schema %s", f.Schema.Name)
	}
	shards := make([]*storage.FactTable, n)
	for i := range shards {
		if only < 0 || i == only {
			shards[i] = storage.NewFactTable(f.Schema)
		}
	}
	// owner[k] is the shard of the rows whose shard-hierarchy base key is k.
	member := f.Schema.Hiers[level.Hier].LevelMap(0, level.Level)
	owner := make([]int32, len(member))
	for k, m := range member {
		owner[k] = int32(shardOf(m, n))
	}

	keyOnly := storage.ColSet{Keys: make([]bool, f.NumHiers()), Meas: make([]bool, f.NumMeasures())}
	keyOnly.Keys[level.Hier] = true
	counts := make([]int, n)
	src := f.ScanSource(keyOnly, nil)
	err := storage.ForBlocks(src, func(b storage.BlockCols) error {
		for _, k := range b.Keys[level.Hier] {
			counts[owner[k]]++
		}
		return nil
	})
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

// LocalCluster is an in-process cluster: n workers, each holding its
// hash-slice of every fact added to it. Tests, benchmarks, and the
// single-box `-cluster local:N` deployment mode build on it.
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

// AddFact splits f by level and registers each slice with its worker.
func (lc *LocalCluster) AddFact(name string, f *storage.FactTable, level mdm.LevelRef) error {
	shards, err := SplitFact(f, level, lc.n)
	if err != nil {
		return err
	}
	for i, sf := range shards {
		if err := lc.Workers[i].Register(name, sf); err != nil {
			return err
		}
	}
	return nil
}

// Clients returns one single-replica client chain per shard.
func (lc *LocalCluster) Clients() [][]ShardClient {
	chains := make([][]ShardClient, lc.n)
	for i, w := range lc.Workers {
		chains[i] = []ShardClient{&LocalClient{Worker: w, Name: fmt.Sprintf("local/%d", i)}}
	}
	return chains
}
