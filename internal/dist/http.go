// HTTP surface of a worker: the partial-aggregate RPC plus health,
// stats, and metrics endpoints, mounted by `assessd -cluster worker:I/N`.
package dist

import (
	"encoding/json"
	"net/http"

	"github.com/assess-olap/assess/internal/obsv"
)

// Handler returns the worker's HTTP mux:
//
//	POST /dist/scan    partial-aggregate scan (binary response)
//	POST /dist/append  append one row to this worker's shard
//	GET  /dist/stats   worker snapshot (JSON)
//	GET  /healthz      readiness probe
//	GET  /metrics      Prometheus text format
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /dist/scan", w.handleScan)
	mux.HandleFunc("POST /dist/append", w.handleAppend)
	mux.HandleFunc("GET /dist/stats", w.handleStats)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		rw.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obsv.Default.WritePrometheus(rw)
	})
	return mux
}

func (w *Worker) handleScan(rw http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	gen, c, err := w.Scan(r.Context(), &req)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(EncodeResponse(gen, c))
}

func (w *Worker) handleAppend(rw http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	gen, err := w.Append(req.Fact, req.Keys, req.Vals)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(appendResponse{Generation: gen})
}

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(w.Stats())
}
