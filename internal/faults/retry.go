package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrDeadline marks retry loops abandoned because the next backoff would
// cross the caller's deadline. Errors returned by Do on that path wrap both
// ErrDeadline and the last attempt's failure, so callers (e.g. the network
// layer mapping failures to status codes) can detect deadline exhaustion
// with errors.Is instead of string matching.
var ErrDeadline = errors.New("faults: deadline exceeded")

// Default backoff parameters, applied when a policy enables retries but
// leaves the corresponding field zero.
const (
	DefaultBaseDelay  = 10 * time.Millisecond
	DefaultMaxDelay   = 2 * time.Second
	DefaultMultiplier = 2.0
)

// RetryPolicy configures capped exponential backoff with jitter. The zero
// value performs exactly one attempt — fail-fast, the paper's §2.4 default.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values <= 1 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry
	// (DefaultBaseDelay when zero).
	BaseDelay time.Duration
	// MaxDelay caps every backoff, jitter included
	// (DefaultMaxDelay when zero).
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry (DefaultMultiplier when zero).
	Multiplier float64
	// JitterFrac spreads each backoff uniformly over
	// [delay*(1-J), delay*(1+J)]; 0 keeps the schedule exact. Values are
	// clamped to [0, 1).
	JitterFrac float64
	// Seed drives the jitter stream, so a retry schedule is reproducible.
	Seed int64
}

// Enabled reports whether the policy performs any retries.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

func (p RetryPolicy) normalized() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.BaseDelay > p.MaxDelay {
		p.BaseDelay = p.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	if p.JitterFrac >= 1 {
		p.JitterFrac = 0.999
	}
	return p
}

// Envelope returns the un-jittered backoff before the n-th retry (n >= 1):
// BaseDelay*Multiplier^(n-1), capped at MaxDelay. The envelope is
// monotonically non-decreasing in n.
func (p RetryPolicy) Envelope(n int) time.Duration {
	p = p.normalized()
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// delayAt draws the jittered backoff before the n-th retry from rng. The
// result stays within [Envelope(n)*(1-J), Envelope(n)*(1+J)] and never
// exceeds MaxDelay.
func (p RetryPolicy) delayAt(n int, rng *rand.Rand) time.Duration {
	p = p.normalized()
	env := p.Envelope(n)
	if p.JitterFrac == 0 {
		return env
	}
	spread := 1 + p.JitterFrac*(2*rng.Float64()-1)
	d := time.Duration(float64(env) * spread)
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Delays returns the deterministic jittered backoff schedule for the first
// n retries under this policy's seed — the exact delays Do will sleep.
func (p RetryPolicy) Delays(n int) []time.Duration {
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = p.delayAt(i+1, rng)
	}
	return out
}

// RetryStats reports what one Do call did.
type RetryStats struct {
	// Attempts is how many times fn ran (>= 1).
	Attempts int
	// Backoff is the total (virtual) time slept between attempts.
	Backoff time.Duration
}

// Do runs fn under the retry policy. Errors that are not transient (see
// IsTransient) — permanent faults, plain execution errors — return
// immediately; transient errors are retried after a backoff drawn from the
// policy, up to MaxAttempts. A non-zero deadline bounds the total schedule:
// a backoff that would cross it is not taken and the last error is returned
// wrapped in a deadline note. Cancelling ctx aborts a pending backoff.
//
// clock nil defaults to Real().
func Do[T any](ctx context.Context, clock Clock, p RetryPolicy, deadline time.Time,
	fn func() (T, error)) (T, RetryStats, error) {
	var zero T
	if clock == nil {
		clock = Real()
	}
	stats := RetryStats{}
	rng := rand.New(rand.NewSource(p.Seed))
	for {
		if err := ctx.Err(); err != nil {
			return zero, stats, err
		}
		res, err := fn()
		stats.Attempts++
		if err == nil {
			return res, stats, nil
		}
		if !IsTransient(err) {
			return zero, stats, err
		}
		if stats.Attempts >= p.MaxAttempts {
			if p.Enabled() {
				err = fmt.Errorf("faults: giving up after %d attempts: %w", stats.Attempts, err)
			}
			return zero, stats, err
		}
		delay := p.delayAt(stats.Attempts, rng)
		if !deadline.IsZero() && clock.Now().Add(delay).After(deadline) {
			return zero, stats, fmt.Errorf("faults: retry deadline exceeded after %d attempts: %w: %w", stats.Attempts, ErrDeadline, err)
		}
		if serr := clock.Sleep(ctx, delay); serr != nil {
			return zero, stats, serr
		}
		stats.Backoff += delay
	}
}
