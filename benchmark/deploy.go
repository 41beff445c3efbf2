package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/sched"
	"github.com/assess-olap/assess/internal/server"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
)

// backend is how a deployment holds its fact tables.
type backend int

const (
	resident backend = iota // in-memory columns
	segment                 // colstore segment directories, mmap
	sharded                 // resident, scatter-gathered over 2 in-process shards
)

// cacheBytes is assessd's default result-cache budget.
const cacheBytes = 64 << 20

// deployment is one assessd-equivalent server built in-process: a
// session wired as cmd/assessd wires it, behind server.New(...).Handler()
// on a real loopback listener.
type deployment struct {
	seed    int64
	ds      *ssb.Dataset // generated data, date-sorted; the reference session reads it
	session *core.Session
	fact    *storage.FactTable // the served LINEORDER table (append target)
	url     string
	srv     *http.Server
	served  chan struct{} // closed when Serve has returned
	stores  []*colstore.Store
	dir     string // segment store directory, removed on close

	// Set-up side measurements of the segment store (zero on resident).
	buildRowsPerSec float64
	openMs          float64
	bytesPerRow     float64
}

// sortByDate stable-sorts the rows of both SSB tables by date key, as a
// fact table grown by daily appends would be laid out. Date ids are
// interned in calendar order, so a counting sort on the key suffices.
// The two tables were generated row for row with the same keys, so one
// permutation serves both.
func sortByDate(ds *ssb.Dataset) {
	dates := ds.Fact.Keys[0]
	count := make([]int, ds.Schema.Hiers[0].Dict(0).Len()+1)
	for _, d := range dates {
		count[d+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	perm := make([]int32, len(dates)) // perm[newRow] = oldRow
	for old, d := range dates {
		perm[count[d]] = int32(old)
		count[d]++
	}
	for _, f := range []*storage.FactTable{ds.Fact, ds.Budget} {
		for h, col := range f.Keys {
			out := make([]int32, len(col))
			for i, old := range perm {
				out[i] = col[old]
			}
			f.Keys[h] = out
		}
		for m, col := range f.Meas {
			out := make([]float64, len(col))
			for i, old := range perm {
				out[i] = col[old]
			}
			f.Meas[m] = out
		}
	}
}

// deploy generates the data and brings a server up for the workload. rec
// is nil for the untraced run, which gets no decorator at all.
func deploy(w *workload, sf float64, seed int64, workdir string, rec *recorder) (_ *deployment, err error) {
	d := &deployment{seed: seed, ds: ssb.Generate(sf, seed), session: core.NewSession()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	sortByDate(d.ds)
	tables := map[string]*storage.FactTable{"LINEORDER": d.ds.Fact, "LINEORDER_BUDGET": d.ds.Budget}
	names := []string{"LINEORDER"}
	if w.budget {
		names = append(names, "LINEORDER_BUDGET")
	}

	if w.backend == segment {
		if err := d.openSegments(tables, names, workdir, rec); err != nil {
			return nil, err
		}
	}
	for _, name := range names {
		if err := d.session.RegisterCube(name, tables[name]); err != nil {
			return nil, err
		}
	}
	d.fact = tables["LINEORDER"]

	// The knobs assessd is deployed with by scripts/loadtest.sh; every
	// other one stays at its library default.
	d.session.Engine.SetParallelism(0)
	d.session.EnableCache(cacheBytes)
	if w.views {
		for _, name := range names {
			for _, levels := range tileViews[name] {
				if err := d.session.Materialize(name, levels...); err != nil {
					return nil, err
				}
			}
		}
	}
	if w.backend == sharded {
		if err := d.shard(names, rec); err != nil {
			return nil, err
		}
	}

	opts := []server.Option{
		server.WithLogger(slog.New(slog.NewJSONHandler(io.Discard, nil))),
		server.WithSlowLog(obsv.NewSlowLog(io.Discard, 0)),
	}
	if w.admission {
		opts = append(opts, server.WithAdmission(sched.NewAdmission(16, 256, 0), ""))
	}
	handler := server.New(d.session, opts...).Handler()
	if rec != nil {
		handler = tracedHandler(handler, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return d, nil
}

// openSegments writes each table as a colstore segment directory and
// reopens it out-of-core, as `ssbgen -out-dir` followed by `assessd
// -store-dir` does; tables is updated to the segment-backed tables.
func (d *deployment) openSegments(tables map[string]*storage.FactTable, names []string, workdir string, rec *recorder) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return err
	}
	d.dir = dir
	var saveTime, openTime time.Duration
	var rows int
	var schemas []*mdm.Schema
	for _, name := range names {
		sub := filepath.Join(dir, name)
		t0 := time.Now()
		if err := persist.SaveCubeDir(sub, tables[name], colstore.Options{}); err != nil {
			return err
		}
		t1 := time.Now()
		f, st, err := persist.OpenCubeDir(sub, colstore.Options{})
		if err != nil {
			return err
		}
		saveTime += t1.Sub(t0)
		openTime += time.Since(t1)
		rows += f.Rows()
		d.stores = append(d.stores, st)
		if rec != nil {
			f = storage.NewSegmentTable(f.Schema, &tracedBackend{SegmentBackend: st, rec: rec})
		}
		tables[name] = f
		schemas = append(schemas, f.Schema)
	}
	persist.ReconcileSchemas(schemas...)
	d.buildRowsPerSec = float64(rows) / saveTime.Seconds()
	d.openMs = float64(openTime) / float64(time.Millisecond)
	var disk int64
	for _, st := range d.stores {
		disk += st.Info().DiskBytes
	}
	d.bytesPerRow = float64(disk) / float64(rows)
	return nil
}

// shard splits every fact over a 2-worker in-process cluster behind a
// coordinator with local fallback, as `assessd -shards 2` does.
func (d *deployment) shard(names []string, rec *recorder) error {
	coord := dist.NewCoordinator(d.session.Engine, dist.Config{})
	lc := dist.NewLocalCluster(2)
	for _, name := range names {
		f, _ := d.session.Engine.Fact(name)
		level := dist.AutoShardLevel(f.Schema)
		if err := lc.AddFact(name, f, level); err != nil {
			return fmt.Errorf("sharding %s: %w", name, err)
		}
		chains := lc.Clients()
		if rec != nil {
			for _, chain := range chains {
				for i, c := range chain {
					chain[i] = &tracedShard{ShardClient: c, rec: rec}
				}
			}
		}
		if err := coord.AddTable(name, level, chains, true); err != nil {
			return err
		}
	}
	d.session.EnableDistributed(coord)
	if rec != nil {
		d.session.Engine.SetScanBatcher(&tracedBatcher{inner: coord, rec: rec})
	}
	return nil
}

// close stops the listener, waits for Serve to return, closes the
// stores and removes the segment directory.
func (d *deployment) close() {
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := d.srv.Shutdown(ctx); err != nil {
			d.srv.Close()
		}
		cancel()
		<-d.served
	}
	// The store is scratch data about to be deleted: a failed close or
	// removal loses nothing and has no one to report to.
	for _, st := range d.stores {
		_ = st.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}
