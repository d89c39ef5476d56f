//go:build !linux

package main

// peakRSSKB reports false: ru_maxrss is read on Linux only, where its
// unit is KiB.
func peakRSSKB() (int64, bool) { return 0, false }
