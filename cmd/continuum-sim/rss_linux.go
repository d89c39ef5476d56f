package main

import "syscall"

// peakRSSKB returns the process's peak resident set size in KiB (the
// unit Linux reports ru_maxrss in), or false when it cannot be read.
func peakRSSKB() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return int64(ru.Maxrss), true
}
