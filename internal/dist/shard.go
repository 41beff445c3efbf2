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
// f's schema, assigning each row by the hash of its member at level.
// It reads through the scan-source contract, so both resident and
// segment-backed facts split the same way.
func SplitFact(f *storage.FactTable, level mdm.LevelRef, n int) ([]*storage.FactTable, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: cannot split into %d shards", n)
	}
	if !f.Schema.HasLevel(level) {
		return nil, fmt.Errorf("dist: shard level out of range for schema %s", f.Schema.Name)
	}
	shards := make([]*storage.FactTable, n)
	for i := range shards {
		shards[i] = storage.NewFactTable(f.Schema)
	}
	src := f.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	// Base key of the shard hierarchy → its member at the shard level.
	member := f.Schema.Hiers[level.Hier].LevelMap(0, level.Level)
	var sc storage.BlockScratch
	keys := make([]int32, f.NumHiers())
	vals := make([]float64, f.NumMeasures())
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("dist: unpredicated scan pruned block %d", b)
		}
		for r := 0; r < cols.Rows; r++ {
			for h := range keys {
				keys[h] = cols.Keys[h][r]
			}
			for m := range vals {
				vals[m] = cols.Meas[m][r]
			}
			s := shardOf(member[keys[level.Hier]], n)
			if err := shards[s].Append(keys, vals); err != nil {
				return nil, err
			}
		}
	}
	return shards, nil
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
