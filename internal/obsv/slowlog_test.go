package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSlowLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf, 100*time.Millisecond)
	sl.Log(50*time.Millisecond, SlowEntry{Endpoint: "/assess", Statement: "fast"})
	sl.Log(150*time.Millisecond, SlowEntry{
		Endpoint: "/assess", Statement: "slow", Strategy: "POP", Cache: "miss", Cells: 42, RequestID: "req-1",
	})
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1 (only the slow query): %q", len(lines), buf.String())
	}
	var e SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if e.Statement != "slow" || e.Strategy != "POP" || e.RequestID != "req-1" {
		t.Fatalf("entry fields wrong: %+v", e)
	}
	if e.TotalMs != 150 || e.ThresholdMs != 100 {
		t.Fatalf("timing fields wrong: %+v", e)
	}
	if _, err := time.Parse(time.RFC3339Nano, e.Time); err != nil {
		t.Fatalf("time field not RFC3339: %v", err)
	}
}

// TestSlowLogStackWhateverTheTime: an entry carrying a stack is written
// below the threshold too.
func TestSlowLogStackWhateverTheTime(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf, time.Hour)
	sl.Log(time.Microsecond, SlowEntry{Statement: "s", Error: "panicked", Stack: "goroutine 1"})
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	var e SlowEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Error != "panicked" || e.Stack != "goroutine 1" {
		t.Fatalf("entry %q (%v)", buf.String(), err)
	}
}

func TestSlowLogBufferedUntilFlush(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf, time.Millisecond)
	sl.Log(time.Second, SlowEntry{Endpoint: "/assess", Statement: "s"})
	if buf.Len() != 0 {
		t.Fatal("entry reached the sink before Flush; SlowLog must buffer")
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("Close must flush the buffer")
	}
}

func TestSlowLogDisabledAndNil(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf, 0) // non-positive threshold disables
	sl.Log(time.Hour, SlowEntry{Statement: "s"})
	sl.Log(0, SlowEntry{Statement: "s", Error: "panicked", Stack: "goroutine 1"})
	sl.Flush()
	if buf.Len() != 0 {
		t.Fatal("disabled slow log must not write")
	}
	var nilLog *SlowLog
	nilLog.Log(time.Hour, SlowEntry{})
	if err := nilLog.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := nilLog.Close(); err != nil {
		t.Fatal(err)
	}
	if nilLog.Threshold() != 0 {
		t.Fatal("nil slow log threshold must be 0")
	}
}
