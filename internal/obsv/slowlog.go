package obsv

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowLog records queries slower than a threshold as JSON lines through
// a buffered writer. Servers call Log on the request path (cheap when
// the query is under threshold: one comparison); the daemon Flushes it
// during shutdown drain so no tail entries are lost.
type SlowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	bw        *bufio.Writer
	closer    io.Closer // underlying sink, closed by Close when non-nil
	logged    *Counter
}

// SlowEntry is one slow-query log line.
type SlowEntry struct {
	Time      string `json:"time"` // RFC 3339, UTC
	RequestID string `json:"requestId,omitempty"`
	Endpoint  string `json:"endpoint"`
	Statement string `json:"statement"`
	Strategy  string `json:"strategy,omitempty"`
	Cache     string `json:"cache,omitempty"`
	Cells     int    `json:"cells,omitempty"`
	// EncodeMs, EncodeWorkers and Bytes describe the response body: the
	// time spent encoding and writing it (part of TotalMs), how many
	// goroutines formatted it (1 is the handler's own; absent when the
	// body was written from rows kept with a cache entry) and its size.
	EncodeMs      float64 `json:"encodeMs,omitempty"`
	EncodeWorkers int     `json:"encodeWorkers,omitempty"`
	Bytes         int64   `json:"bytes,omitempty"`
	// Error and Stack describe a statement that panicked: the error it
	// failed with and the stack of the goroutine that panicked.
	Error       string  `json:"error,omitempty"`
	Stack       string  `json:"stack,omitempty"`
	TotalMs     float64 `json:"totalMs"`
	ThresholdMs float64 `json:"thresholdMs"`
}

// NewSlowLog builds a slow-query log writing to w. Queries at or above
// threshold are logged; a non-positive threshold disables logging (Log
// becomes a no-op). If w is an io.Closer, Close closes it.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	sl := &SlowLog{
		threshold: threshold,
		bw:        bufio.NewWriter(w),
		logged:    Default.Counter("assess_slow_queries_total", "Queries logged by the slow-query log."),
	}
	if c, ok := w.(io.Closer); ok {
		sl.closer = c
	}
	return sl
}

// Threshold returns the configured threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Log writes an entry if the elapsed time reaches the threshold, and an
// entry carrying a Stack whatever the time. Nil-safe, so servers hold a
// possibly-nil *SlowLog without branching.
func (l *SlowLog) Log(elapsed time.Duration, e SlowEntry) {
	if l == nil || l.threshold <= 0 || (elapsed < l.threshold && e.Stack == "") {
		return
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	e.TotalMs = float64(elapsed) / float64(time.Millisecond)
	e.ThresholdMs = float64(l.threshold) / float64(time.Millisecond)
	buf, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bw.Write(buf)
	l.bw.WriteByte('\n')
	l.logged.Inc()
}

// Flush drains the buffer to the underlying writer.
func (l *SlowLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bw.Flush()
}

// Close flushes and closes the underlying sink (when it is a Closer).
func (l *SlowLog) Close() error {
	if l == nil {
		return nil
	}
	err := l.Flush()
	if l.closer != nil {
		if cerr := l.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
