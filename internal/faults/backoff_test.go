package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestBackoffEnvelopeProperties: for any policy, the un-jittered envelope is
// monotonically non-decreasing and capped at MaxDelay.
func TestBackoffEnvelopeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p := RetryPolicy{
			MaxAttempts: 2 + rng.Intn(20),
			BaseDelay:   time.Duration(rng.Intn(200)) * time.Millisecond,
			MaxDelay:    time.Duration(1+rng.Intn(5000)) * time.Millisecond,
			Multiplier:  0.5 + rng.Float64()*4,
		}
		prev := time.Duration(0)
		for n := 1; n <= 30; n++ {
			env := p.Envelope(n)
			if env < prev {
				t.Fatalf("trial %d: envelope not monotone at n=%d: %v < %v (policy %+v)", trial, n, env, prev, p)
			}
			if env > p.normalized().MaxDelay {
				t.Fatalf("trial %d: envelope %v exceeds cap %v at n=%d", trial, env, p.normalized().MaxDelay, n)
			}
			if env <= 0 {
				t.Fatalf("trial %d: non-positive envelope %v at n=%d", trial, env, n)
			}
			prev = env
		}
	}
}

// TestBackoffJitterBounds: for any seed, every jittered delay stays within
// [env*(1-J), env*(1+J)] and never exceeds MaxDelay.
func TestBackoffJitterBounds(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := RetryPolicy{
			MaxAttempts: 10,
			BaseDelay:   7 * time.Millisecond,
			MaxDelay:    900 * time.Millisecond,
			Multiplier:  2.3,
			JitterFrac:  0.4,
			Seed:        seed,
		}
		for n, d := range p.Delays(12) {
			env := float64(p.Envelope(n + 1))
			lo := time.Duration(env * (1 - p.JitterFrac) * 0.999)
			hi := time.Duration(env * (1 + p.JitterFrac) * 1.001)
			if hi > p.MaxDelay {
				hi = p.MaxDelay
			}
			if d < lo || d > hi {
				t.Fatalf("seed %d retry %d: delay %v outside [%v, %v]", seed, n+1, d, lo, hi)
			}
		}
	}
}

// TestBackoffDelaysDeterministic: the schedule is a pure function of the
// seed.
func TestBackoffDelaysDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, JitterFrac: 0.5, Seed: 42}
	a, b := p.Delays(10), p.Delays(10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs between identical policies: %v vs %v", i, a[i], b[i])
		}
	}
	p2 := p
	p2.Seed = 43
	c := p2.Delays(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

// TestDoRetriesUntilSuccess: transient errors are retried, the virtual clock
// accumulates exactly the policy's schedule, and no wall-clock sleeping
// happens.
func TestDoRetriesUntilSuccess(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, JitterFrac: 0.3, Seed: 7}
	fails := 3
	start := time.Now()
	v, stats, err := Do(context.Background(), clock, p, time.Time{}, func() (int, error) {
		if fails > 0 {
			fails--
			return 0, &Error{Op: "scan", Kind: Throttled, Class: Transient}
		}
		return 99, nil
	})
	if err != nil || v != 99 {
		t.Fatalf("Do = %d, %v", v, err)
	}
	if stats.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", stats.Attempts)
	}
	want := time.Duration(0)
	for _, d := range p.Delays(3) {
		want += d
	}
	if stats.Backoff != want || clock.Slept() != want {
		t.Fatalf("backoff = %v, clock slept %v, want %v", stats.Backoff, clock.Slept(), want)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("virtual-time retry took %v of wall clock", wall)
	}
}

// TestDoDeadlineProperty: for any seed, total virtual retry time never
// exceeds the configured deadline — a backoff that would cross it is not
// taken.
func TestDoDeadlineProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		start := time.Unix(1000, 0)
		clock := NewVirtualClock(start)
		budget := time.Duration(50+seed*13) * time.Millisecond
		deadline := start.Add(budget)
		p := RetryPolicy{MaxAttempts: 1000, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Multiplier: 1.7, JitterFrac: 0.5, Seed: seed}
		_, _, err := Do(context.Background(), clock, p, deadline, func() (int, error) {
			return 0, &Error{Op: "scan", Kind: Throttled, Class: Transient}
		})
		if err == nil {
			t.Fatalf("seed %d: always-failing fn returned nil error", seed)
		}
		if !clock.Now().Before(deadline) && !clock.Now().Equal(deadline) {
			t.Fatalf("seed %d: virtual time %v passed the deadline %v", seed, clock.Now(), deadline)
		}
		if clock.Slept() > budget {
			t.Fatalf("seed %d: total retry time %v exceeds deadline budget %v", seed, clock.Slept(), budget)
		}
	}
}

// TestDoNonRetryable: permanent faults and plain errors return immediately
// with one attempt.
func TestDoNonRetryable(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	p := RetryPolicy{MaxAttempts: 10}
	perm := &Error{Op: "scan", Kind: Unavailable, Class: Permanent}
	_, stats, err := Do(context.Background(), clock, p, time.Time{}, func() (int, error) {
		return 0, perm
	})
	if !errors.Is(err, perm) || stats.Attempts != 1 {
		t.Fatalf("permanent fault: err=%v attempts=%d", err, stats.Attempts)
	}
	plain := fmt.Errorf("no dataset named x")
	_, stats, err = Do(context.Background(), clock, p, time.Time{}, func() (int, error) {
		return 0, plain
	})
	if !errors.Is(err, plain) || stats.Attempts != 1 {
		t.Fatalf("plain error: err=%v attempts=%d", err, stats.Attempts)
	}
	if clock.Slept() != 0 {
		t.Fatalf("non-retryable errors slept %v", clock.Slept())
	}
}

// TestDoExhaustion: a persistent transient error gives up after MaxAttempts
// with a wrapped cause.
func TestDoExhaustion(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}
	cause := &Error{Op: "scan", Kind: BlockIO, Class: Transient}
	_, stats, err := Do(context.Background(), clock, p, time.Time{}, func() (int, error) {
		return 0, cause
	})
	if stats.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", stats.Attempts)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("exhaustion error does not wrap the cause: %v", err)
	}
	if !IsTransient(err) {
		t.Fatalf("wrapped exhaustion error lost its transient class: %v", err)
	}
}

// TestDoZeroPolicyFailsFast: the zero policy is single-attempt, and the
// error comes back unwrapped.
func TestDoZeroPolicyFailsFast(t *testing.T) {
	cause := &Error{Op: "scan", Kind: Throttled, Class: Transient}
	_, stats, err := Do(context.Background(), nil, RetryPolicy{}, time.Time{}, func() (int, error) {
		return 0, cause
	})
	if stats.Attempts != 1 {
		t.Fatalf("zero policy attempts = %d, want 1", stats.Attempts)
	}
	if err != error(cause) {
		t.Fatalf("zero policy wrapped the error: %v", err)
	}
}

// TestDoContextCancel: cancelling the context aborts the retry loop.
func TestDoContextCancel(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 1000, BaseDelay: time.Millisecond}
	calls := 0
	_, _, err := Do(ctx, clock, p, time.Time{}, func() (int, error) {
		calls++
		if calls == 3 {
			cancel()
		}
		return 0, &Error{Op: "scan", Kind: Throttled, Class: Transient}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times after cancel", calls)
	}
}
