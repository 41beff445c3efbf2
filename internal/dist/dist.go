// Package dist implements distributed scatter-gather execution over
// hash-sharded fact tables. A fact is partitioned by the hash of each
// row's member at a chosen shard level; every shard's slice lives in a
// worker — either an in-process *Worker (tests, benchmarks, single-box
// deployments) or a separate `assessd -worker` process reached over a
// compact partial-aggregate RPC (see http.go). A Coordinator implements
// engine.ScanBatcher: it plans each fact scan once, fans per-shard
// requests out concurrently (routing around shards the predicates prove
// empty), and hands the replies to the engine, which re-aggregates them
// as it does a view's cells (engine.Decompose, engine.Combine): what each
// operator's sub-aggregate is and how sub-aggregates recombine is the
// engine's rule, and this package never looks at an operator.
//
// Results are bit-exact for the measures the oracle generates:
// integer-valued sub-aggregates make the order in which shards are
// combined irrelevant. Failure handling — per-shard deadlines, re-dispatch
// to replicas, local fallback, and a configurable partial-result policy
// — lives in coordinator.go; docs/distribution.md documents the wire
// format and the coherence contract.
package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
)

// Policy selects what the coordinator does when a shard cannot be
// served by any replica or a local fallback.
type Policy int

const (
	// PolicyFail rejects the query with an *Unavailable error (the
	// server maps it to HTTP 503).
	PolicyFail Policy = iota
	// PolicyPartial merges the partials that did arrive and annotates
	// the response as partial via the context's PartialNote.
	PolicyPartial
)

// ParsePolicy maps the -dist-policy flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fail":
		return PolicyFail, nil
	case "partial":
		return PolicyPartial, nil
	}
	return PolicyFail, fmt.Errorf("dist: unknown policy %q (want fail or partial)", s)
}

func (p Policy) String() string {
	if p == PolicyPartial {
		return "partial"
	}
	return "fail"
}

// Unavailable reports that one or more shards of a fact could not be
// served and the coordinator's policy is PolicyFail. The server maps it
// to HTTP 503 Service Unavailable.
type Unavailable struct {
	Fact   string
	Shards []int // shard indices that failed
	Err    error // representative cause from the last failed attempt
}

func (u *Unavailable) Error() string {
	return fmt.Sprintf("dist: fact %s unavailable: shard(s) %v failed: %v", u.Fact, u.Shards, u.Err)
}

func (u *Unavailable) Unwrap() error { return u.Err }

// PartialNote collects, per request, whether any scan under it was
// served partially and which shards were degraded. Server handlers
// install one with TrackPartial before executing a statement and
// annotate the response from it.
type PartialNote struct {
	mu      sync.Mutex
	partial bool
	shards  []string // "FACT/3" entries, deduplicated
}

type noteKey struct{}

// TrackPartial derives a context carrying a fresh PartialNote. Every
// coordinator scan under the returned context records degraded shards
// into the note instead of failing (given PolicyPartial).
func TrackPartial(ctx context.Context) (context.Context, *PartialNote) {
	n := &PartialNote{}
	return context.WithValue(ctx, noteKey{}, n), n
}

func noteFrom(ctx context.Context) *PartialNote {
	n, _ := ctx.Value(noteKey{}).(*PartialNote)
	return n
}

func (n *PartialNote) record(fact string, shards []int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partial = true
	for _, s := range shards {
		tag := fmt.Sprintf("%s/%d", fact, s)
		found := false
		for _, have := range n.shards {
			if have == tag {
				found = true
				break
			}
		}
		if !found {
			n.shards = append(n.shards, tag)
		}
	}
	sort.Strings(n.shards)
}

// Partial reports whether any scan under the tracked context was
// degraded.
func (n *PartialNote) Partial() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partial
}

// DegradedShards lists the degraded "FACT/shard" tags, sorted.
func (n *PartialNote) DegradedShards() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.shards...)
}

// WirePred is one scan predicate on the wire: accepted member ids at
// one level of one hierarchy.
type WirePred struct {
	Hier    int     `json:"hier"`
	Level   int     `json:"level"`
	Members []int32 `json:"members"`
}

// ScanRequest is the partial-aggregate RPC request: a group-by set,
// predicates, and the partial columns to compute. Hierarchies, levels
// and members travel as the coordinator's integer ids — every node
// builds the identical schema (same dataset, same dictionaries), so ids
// agree by construction; docs/distribution.md states this contract.
type ScanRequest struct {
	Fact     string         `json:"fact"`
	Group    []mdm.LevelRef `json:"group"`
	Preds    []WirePred     `json:"preds,omitempty"`
	Measures []int          `json:"measures"`
	Ops      []int          `json:"ops"`
	Names    []string       `json:"names"`
}

// query turns the request into the engine's terms, rejecting what only a
// malformed request holds and the engine's own checks would not see: a
// name list that does not pair with the operators, or an operator the
// engine does not have.
func (r *ScanRequest) query() (engine.Query, []mdm.AggOp, error) {
	if len(r.Names) != len(r.Ops) {
		return engine.Query{}, nil, fmt.Errorf("dist: scan request names %d columns for %d operators", len(r.Names), len(r.Ops))
	}
	q := engine.Query{
		Fact:     r.Fact,
		Group:    mdm.GroupBy(r.Group),
		Measures: r.Measures,
	}
	for _, p := range r.Preds {
		q.Preds = append(q.Preds, engine.Predicate{
			Level:   mdm.LevelRef{Hier: p.Hier, Level: p.Level},
			Members: p.Members,
		})
	}
	ops := make([]mdm.AggOp, len(r.Ops))
	for i, o := range r.Ops {
		if ops[i] = mdm.AggOp(o); !ops[i].Valid() {
			return engine.Query{}, nil, fmt.Errorf("dist: scan request has unknown operator %d", o)
		}
	}
	return q, ops, nil
}

// respMagic versions the binary partial-aggregate response format.
const respMagic = "ADP1"

// respHeader is the length of the ADP1 header: magic, the shard fact's
// generation (u64), then coordinate, column and row counts (u32 each).
const respHeader = 4 + 8 + 12

// EncodeResponse serializes a worker's partial cube: the ADP1 header,
// then the cells in the engine's row codec (engine.AppendRows).
func EncodeResponse(gen uint64, c *cube.Cube) []byte {
	buf := make([]byte, 0, respHeader+c.Len()*(4*len(c.Group)+8*len(c.Cols)))
	buf = append(buf, respMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Group)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Cols)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Len()))
	return engine.AppendRows(buf, c)
}

// DecodeResponse parses an encoded partial response against the
// coordinator's schema and the request's group-by and partial names.
// Shape and body length are checked against the header before anything
// is allocated, so a frame costs no more memory than its own length
// implies.
func DecodeResponse(s *mdm.Schema, g mdm.GroupBy, names []string, buf []byte) (uint64, *cube.Cube, error) {
	if len(buf) < respHeader || string(buf[:4]) != respMagic {
		return 0, nil, fmt.Errorf("dist: bad response header")
	}
	gen := binary.LittleEndian.Uint64(buf[4:])
	ncoord := int(binary.LittleEndian.Uint32(buf[12:]))
	ncols := int(binary.LittleEndian.Uint32(buf[16:]))
	nrows := int(binary.LittleEndian.Uint32(buf[20:]))
	if ncoord != len(g) || ncols != len(names) {
		return 0, nil, fmt.Errorf("dist: response shape %dx%d, want %dx%d", ncoord, ncols, len(g), len(names))
	}
	rowBytes := 4*ncoord + 8*ncols
	body := buf[respHeader:]
	if len(body) != nrows*rowBytes || (rowBytes == 0 && nrows > 1) {
		return 0, nil, fmt.Errorf("dist: response body %d bytes for %d rows of %d", len(body), nrows, rowBytes)
	}
	var c *cube.Cube
	var err error
	if rowBytes == 0 {
		// No levels and no columns: the one possible cell has no bytes,
		// so only the header says whether it is there.
		c, err = cube.Build(s, g, names, nrows, nil, nil)
	} else {
		c, err = engine.DecodeRows(s, g, names, body)
	}
	if err != nil {
		return 0, nil, err
	}
	return gen, c, nil
}
