package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the process-wide cost counters at one instant.
type procSnap struct {
	mallocs, allocBytes, pauseNs uint64
	cpu                          time.Duration
	maxRSSKB                     int64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKB = int64(ru.Maxrss) // kilobytes on Linux: the VmHWM figure
	}
	return s
}

// perOp writes the proc.* metrics for ops operations run between before
// and s. All three roles share the one process, so the figures cover
// client, router and daemons together.
func (s procSnap) perOp(before procSnap, ops int64, res *result) {
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	res.metrics["proc.allocs_per_op"] = float64(s.mallocs-before.mallocs) / n
	res.metrics["proc.alloc_bytes_per_op"] = float64(s.allocBytes-before.allocBytes) / n
	res.metrics["proc.cpu_ms_per_kop"] = float64(s.cpu-before.cpu) / float64(time.Millisecond) / n * 1e3
	res.metrics["proc.gc_pause_ms"] = float64(s.pauseNs-before.pauseNs) / 1e6
	res.metrics["proc.peak_rss_mb"] = float64(s.maxRSSKB) / 1e3
}
