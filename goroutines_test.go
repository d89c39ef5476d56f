package continuum_test

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutines makes t fail, with every goroutine's stack, unless
// the goroutine count is back to its value at the call within 2s of the
// test's end. It runs after the test's defers and its other cleanups,
// so whatever the test closes is closed by then. Call it first.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := settledGoroutines()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// settledGoroutines is the goroutine count once those left over from
// earlier tests have exited: two samples 20ms apart agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
