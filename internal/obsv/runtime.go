package obsv

import (
	"runtime"
	"time"
)

// The runtime/process gauges are registered in Default once per process:
// goroutine count, heap bytes, cumulative GC cycles, and uptime. Values
// are read at scrape time, so they cost nothing between scrapes.
func init() { registerProcessMetrics(Default, time.Now()) }

func registerProcessMetrics(r *Registry, start time.Time) {
	r.GaugeFunc("assess_process_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("assess_process_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc).", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	r.CounterFunc("assess_process_gc_cycles_total", "Completed GC cycles.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})
	r.GaugeFunc("assess_process_uptime_seconds", "Seconds since the process started.", func() float64 {
		return time.Since(start).Seconds()
	})
}
