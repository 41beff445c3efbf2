package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// TestHTTPClientBoundsReply: the client reads a shard's reply through a
// limit derived from the request — the ADP1 header plus one row per key
// of the group-by's key space — so a shard that sends more is an error,
// not memory. A frame of exactly that length still decodes.
func TestHTTPClientBoundsReply(t *testing.T) {
	ds := sales.Generate(10, 1)
	g := mdm.GroupBy{{Hier: 3, Level: 0}}
	req := &ScanRequest{Fact: "SALES", Group: g, Measures: []int{0}, Ops: []int{int(mdm.AggSum)}, Names: []string{"p0"}}
	// The longest honest reply: a cell for every member of the level.
	full := cube.New(ds.Schema, g, "p0")
	for id := 0; id < ds.Schema.Dict(g[0]).Len(); id++ {
		full.MustAddCell(mdm.Coordinate{int32(id)}, float64(id))
	}
	frame := EncodeResponse(3, full)
	if limit := scanReplyLimit(req, ds.Schema); limit != int64(len(frame)) {
		t.Fatalf("limit %d for a full frame of %d bytes", limit, len(frame))
	}

	shard := func(reply http.HandlerFunc) *HTTPClient {
		srv := httptest.NewServer(reply)
		t.Cleanup(srv.Close)
		return &HTTPClient{BaseURL: srv.URL}
	}

	client := shard(func(w http.ResponseWriter, _ *http.Request) { w.Write(frame) })
	gen, got, err := client.Scan(context.Background(), req, ds.Schema)
	if err != nil || gen != 3 || got.Len() != full.Len() {
		t.Fatalf("frame at the limit: gen %d, cube %v, err %v", gen, got, err)
	}

	client = shard(func(w http.ResponseWriter, _ *http.Request) { w.Write(append(frame[:len(frame):len(frame)], 0)) })
	if _, _, err := client.Scan(context.Background(), req, ds.Schema); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("frame one byte over the limit: err %v, want the limit error", err)
	}

	// An endless 200 body: the handler writes until the client hangs up,
	// which it does as soon as the limit is passed.
	client = shard(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 4096)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	if _, _, err := client.Scan(context.Background(), req, ds.Schema); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless reply: err %v, want the limit error", err)
	}
	if _, err := client.Append(context.Background(), "SALES", []int32{0, 0, 0, 0}, []float64{1, 1, 1}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless append reply: err %v, want the limit error", err)
	}

	// An error status quotes a bounded piece of its body.
	client = shard(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(strings.Repeat("x", 4*maxSmallReply)))
	})
	if _, _, err := client.Scan(context.Background(), req, ds.Schema); err == nil || len(err.Error()) > 2*maxSmallReply {
		t.Fatalf("error body: err of %d bytes, want a bounded message", len(err.Error()))
	}
}
