// Shard clients: how the coordinator reaches a shard's worker. The
// in-process LocalClient round-trips through the same binary wire
// format as the HTTP client, so tests and benchmarks exercise exactly
// the remote encode/decode path.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
)

// ShardClient reaches one replica of one shard.
type ShardClient interface {
	// Scan runs the partial-aggregate RPC; the schema decodes the
	// response. Implementations must honor ctx cancellation promptly —
	// the coordinator's per-shard deadline depends on it.
	Scan(ctx context.Context, req *ScanRequest, s *mdm.Schema) (uint64, *cube.Cube, error)
	// Append routes one appended row to this replica.
	Append(ctx context.Context, fact string, keys []int32, vals []float64) (uint64, error)
	// Target names the replica for stats and errors.
	Target() string
}

// LocalClient calls an in-process worker directly, still passing
// partials through EncodeResponse/DecodeResponse so in-process clusters
// share the remote path's semantics.
type LocalClient struct {
	Worker *Worker
	Name   string
	// Hook, when set, runs before each scan with the request context.
	// Tests inject stragglers (block until ctx expires) and crashes
	// (return an error) through it.
	Hook func(ctx context.Context) error
}

func (c *LocalClient) Target() string {
	if c.Name != "" {
		return c.Name
	}
	return "local"
}

func (c *LocalClient) Scan(ctx context.Context, req *ScanRequest, s *mdm.Schema) (uint64, *cube.Cube, error) {
	if c.Hook != nil {
		if err := c.Hook(ctx); err != nil {
			return 0, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	gen, pc, err := c.Worker.Scan(ctx, req)
	if err != nil {
		return 0, nil, err
	}
	return DecodeResponse(s, mdm.GroupBy(req.Group), req.Names, EncodeResponse(gen, pc))
}

func (c *LocalClient) Append(ctx context.Context, fact string, keys []int32, vals []float64) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return c.Worker.Append(fact, keys, vals)
}

// HTTPClient reaches an `assessd -worker` process over the HTTP RPC
// (POST /dist/scan, POST /dist/append).
type HTTPClient struct {
	// BaseURL is the worker's address, e.g. "http://127.0.0.1:8311".
	BaseURL string
	// Client defaults to a dedicated client with sane timeouts.
	Client *http.Client
}

func (c *HTTPClient) Target() string { return c.BaseURL }

func (c *HTTPClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return defaultHTTPClient
}

// defaultHTTPClient bounds dials so a dead worker fails fast; request
// deadlines come from the coordinator's per-shard context.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       30 * time.Second,
		ResponseHeaderTimeout: 0, // ctx-driven
	},
}

// maxScanReply caps a /dist/scan reply whatever the request: the bound
// derived from a group-by's key space saturates here (wide spaces).
// maxSmallReply bounds /dist/append replies and the error bodies quoted
// in messages.
const (
	maxScanReply  = 1 << 30
	maxSmallReply = 64 << 10
)

// scanReplyLimit is the longest frame a correct shard can send for req:
// the ADP1 header plus one row for every key of the group-by's key space
// over the coordinator's dictionaries.
func scanReplyLimit(req *ScanRequest, s *mdm.Schema) int64 {
	rowBytes := int64(4*len(req.Group) + 8*len(req.Names))
	rows := int64(1)
	for _, ref := range req.Group {
		card := int64(max(s.Dict(ref).Len(), 1))
		if rows > maxScanReply/card {
			return maxScanReply
		}
		rows *= card
	}
	return min(respHeader+rows*rowBytes, maxScanReply)
}

// post sends body as JSON and returns the reply, which may be at most
// limit bytes long: a shard that streams more is an error, not memory.
func (c *HTTPClient) post(ctx context.Context, path string, body any, limit int64) ([]byte, error) {
	js, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(js))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The status is the error; a body that fails to arrive only
		// shortens the message.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxSmallReply))
		return nil, fmt.Errorf("dist: %s%s: %s: %s", c.BaseURL, path, resp.Status, bytes.TrimSpace(msg))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("dist: %s%s: reply exceeds the %d bytes the request allows", c.BaseURL, path, limit)
	}
	return data, nil
}

func (c *HTTPClient) Scan(ctx context.Context, req *ScanRequest, s *mdm.Schema) (uint64, *cube.Cube, error) {
	data, err := c.post(ctx, "/dist/scan", req, scanReplyLimit(req, s))
	if err != nil {
		return 0, nil, err
	}
	return DecodeResponse(s, mdm.GroupBy(req.Group), req.Names, data)
}

type appendRequest struct {
	Fact string    `json:"fact"`
	Keys []int32   `json:"keys"`
	Vals []float64 `json:"vals"`
}

type appendResponse struct {
	Generation uint64 `json:"generation"`
}

func (c *HTTPClient) Append(ctx context.Context, fact string, keys []int32, vals []float64) (uint64, error) {
	data, err := c.post(ctx, "/dist/append", appendRequest{Fact: fact, Keys: keys, Vals: vals}, maxSmallReply)
	if err != nil {
		return 0, err
	}
	var ar appendResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return 0, err
	}
	return ar.Generation, nil
}

// ParseShardAddrs parses the -shard-addrs flag: comma-separated shard
// groups, each a |-separated primary-then-replicas list of base URLs.
// "http://a|http://b,http://c" → shard 0 with replica, shard 1 without.
func ParseShardAddrs(spec string) ([][]ShardClient, error) {
	if spec == "" {
		return nil, fmt.Errorf("dist: empty shard address list")
	}
	var chains [][]ShardClient
	for _, group := range strings.Split(spec, ",") {
		var chain []ShardClient
		for _, addr := range strings.Split(group, "|") {
			if addr = strings.TrimSpace(addr); addr != "" {
				chain = append(chain, &HTTPClient{BaseURL: addr})
			}
		}
		if len(chain) == 0 {
			return nil, fmt.Errorf("dist: empty shard group in %q", spec)
		}
		chains = append(chains, chain)
	}
	return chains, nil
}
