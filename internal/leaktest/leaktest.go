// Package leaktest holds the goroutine checks the concurrency tests share:
// waiting for the goroutines a test started to exit, and waiting for a given
// number of goroutines to block inside one function, which lets a test fix
// the order in which they queued.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Settle fails the test unless the goroutine count falls back to base: a
// code path that leaves a worker, watcher or waiter running keeps the count
// above it. Exiting goroutines are not observable directly, so the count is
// polled for a few seconds.
func Settle(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d:\n%s", runtime.NumGoroutine(), base, stacks())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitBlocked waits until exactly n goroutines are blocked on a channel
// operation (a send, a receive or a select) inside fn, named as stack
// traces print it, e.g. "session.(*Session).lockForUser". A goroutine is
// reported blocked only once it has joined the channel's wait queue, so
// goroutines started one at a time, each after WaitBlocked saw the one
// before, are queued in that order.
func WaitBlocked(t testing.TB, fn string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, g := range strings.Split(stacks(), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if (strings.Contains(header, "[select") || strings.Contains(header, "[chan ")) &&
				strings.Contains(g, fn+"(") {
				got++
			}
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines blocked in %s, want %d:\n%s", got, fn, n, stacks())
		}
		time.Sleep(time.Millisecond)
	}
}

// stacks returns every goroutine's stack trace.
func stacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
