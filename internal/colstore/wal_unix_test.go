//go:build linux || darwin

package colstore

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/assess-olap/assess/internal/storage"
)

// TestAppendSurvivesProcessKill re-executes the test binary as a child
// that appends rows, folding once midway so the log rotates to a fresh
// mapping and then slides past a window, prints how many Appends
// returned and SIGKILLs itself without Close. Every returned row must
// come back on reopen, row for row; wal.log must be cut to its header
// plus the intact records, and the store must take appends after them.
func TestAppendSurvivesProcessKill(t *testing.T) {
	// A row of two keys and two measures is a 32-byte record.
	const folded, rows = 20000, 20000 + walWindow/32 + 5000
	s := testSchema(t, 100)
	keys, meas := genRows(s, rows, 9)
	if flag.Arg(0) == "kill-child" {
		appendAndDie(t, flag.Arg(1), keys, meas, folded)
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestAppendSurvivesProcessKill$", "-test.count=1", "--", "kill-child", dir)
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child did not die by SIGKILL: %v\n%s", err, out)
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(out)))
	if err != nil || n != rows {
		t.Fatalf("child reported %q returned appends, want %d", out, rows)
	}
	walPath := filepath.Join(dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(walHeaderLen + (n-folded)*32)
	if fi.Size() <= want {
		t.Fatalf("the killed log holds %d bytes, want a zero tail past %d", fi.Size(), want)
	}
	st, err := Open(dir, Options{AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkWALLen(t, walPath, want)
	if st.Rows() != n {
		t.Fatalf("reopened store holds %d rows, want %d", st.Rows(), n)
	}
	gotK, gotM := readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, keys, meas, gotK, gotM)
	if err := st.Append([]int32{1, 1}, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if st.Rows() != n+1 {
		t.Fatalf("rows after an append to the reopened store = %d, want %d", st.Rows(), n+1)
	}
}

// appendAndDie is the child of TestAppendSurvivesProcessKill.
func appendAndDie(t *testing.T, dir string, keys [][]int32, meas [][]float64, folded int) {
	st, err := Create(dir, testSchema(t, 100), Options{AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	row, vals := make([]int32, 2), make([]float64, 2)
	n := 0
	for r := range keys[0] {
		if r == folded {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		row[0], row[1], vals[0], vals[1] = keys[0][r], keys[1][r], meas[0][r], meas[1][r]
		if err := st.Append(row, vals); err != nil {
			break
		}
		n++
	}
	fmt.Println(n)
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {}
}

// TestWALFaultIsSticky truncates wal.log under an open store: the next
// store into the mapping faults. That Append fails with an error instead
// of killing the process, every later one fails with the same error, and
// the rows appended before it still count and scan, until a fold
// rewrites the log.
func TestWALFaultIsSticky(t *testing.T) {
	dir := t.TempDir()
	s := testSchema(t, 100)
	st, err := Create(dir, s, Options{AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Two pages of 32-byte records: the next store lands past the page
	// that holds the truncated file's end, so it faults.
	n := 2 * os.Getpagesize() / 32
	keys, meas := genRows(s, n, 10)
	appendRows(t, st, keys, meas)
	if err := os.Truncate(filepath.Join(dir, walName), walHeaderLen); err != nil {
		t.Fatal(err)
	}
	first := st.Append([]int32{1, 1}, []float64{1, 1})
	if first == nil || !strings.Contains(first.Error(), "fault on the mapped log") {
		t.Fatalf("an append past the truncated log's end returned %v, want a fault", first)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append([]int32{1, 1}, []float64{1, 1}); err != first {
			t.Fatalf("append %d after the fault: %v, want %v", i, err, first)
		}
	}
	if st.Rows() != n {
		t.Fatalf("rows after the fault = %d, want %d", st.Rows(), n)
	}
	gotK, gotM := readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, keys, meas, gotK, gotM)
	// A fold rewrites the log from the tail, which holds no gap: appends
	// go on, and a reopened store holds every row.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]int32{1, 1}, []float64{1, 1}); err != nil {
		t.Fatalf("append after the fold: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Rows() != n+1 {
		t.Fatalf("reopened rows = %d, want %d", st2.Rows(), n+1)
	}
}
