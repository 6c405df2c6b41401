package faults

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Clock abstracts time for backoff and deadlines. Production code uses the
// real clock; tests use a VirtualClock so retry schedules spanning minutes
// of simulated waiting execute in microseconds and never call time.Sleep.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep waits for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// realClock is the wall clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Real returns the wall clock.
func Real() Clock { return realClock{} }

// VirtualClock is a deterministic time source: Sleep advances the clock
// instantly instead of blocking, and Slept reports the total virtual time
// spent waiting. It is safe for concurrent use.
type VirtualClock struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (used by the injector's latency
// spikes and by tests).
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Sleep advances virtual time by d without blocking. It yields the
// processor so a loop that sleeps on the virtual clock (a retry backoff, or
// Scheduler.Loop between ticks) cannot starve the goroutines it waits on.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		c.mu.Lock()
		c.now = c.now.Add(d)
		c.slept += d
		c.mu.Unlock()
	}
	runtime.Gosched()
	return nil
}

// Slept returns the total virtual time spent in Sleep.
func (c *VirtualClock) Slept() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}
