package session

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"datachat/internal/artifact"
	"datachat/internal/dataset"
	"datachat/internal/leaktest"
	"datachat/internal/skills"
)

// These tests pin the §2.4 contention policy: by default a request that
// finds the session busy fails fast with ErrBusy (never queues), and
// SetLockWait opts in to a bounded wait in which queued requests are handed
// the lock first come, first served as it is released.

// lockWaiter names the function a request blocks in while it waits for the
// session lock.
const lockWaiter = "session.(*Session).lockForUser"

// hold takes the session lock as if another request were mid-execution.
func hold(s *Session) { s.lock <- struct{}{} }

// TestBusyFailFastIsTheDefault: with no lock wait, a held lock fails the
// request immediately — no waiting, and the holder keeps the lock.
func TestBusyFailFastIsTheDefault(t *testing.T) {
	s := newSession(t)
	hold(s) // another request is mid-execution
	_, _, err := s.Request("ann", skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if len(s.lock) != 1 {
		t.Error("a rejected request must leave the holder's lock in place")
	}
	if len(s.History()) != 0 {
		t.Error("a rejected request must not enter the history")
	}
}

// TestBusyRetryExhaustsDeterministically: with a lock wait set and the lock
// never released, the request waits out the full wait and surfaces ErrBusy.
func TestBusyRetryExhaustsDeterministically(t *testing.T) {
	s := newSession(t)
	hold(s)
	const wait = 20 * time.Millisecond
	s.SetLockWait(wait)
	start := time.Now()
	_, _, err := s.Request("ann", skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if waited := time.Since(start); waited < wait {
		t.Errorf("gave up after %v, before the %v lock wait", waited, wait)
	}
	if len(s.History()) != 0 {
		t.Error("a rejected request must not enter the history")
	}
}

// TestBusyRetrySucceedsAfterRelease: a request that finds the lock held
// waits, and runs as soon as the holder releases it.
func TestBusyRetrySucceedsAfterRelease(t *testing.T) {
	s := newSession(t)
	hold(s)
	s.SetLockWait(time.Minute)
	type reply struct {
		res *skills.Result
		err error
	}
	done := make(chan reply, 1)
	go func() {
		res, _, err := s.Request("ann", skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
		done <- reply{res, err}
	}()
	leaktest.WaitBlocked(t, lockWaiter, 1)
	s.unlock()
	r := <-done
	if r.err != nil {
		t.Fatalf("request after release: %v", r.err)
	}
	if r.res.Table == nil {
		t.Fatal("no result")
	}
	if len(s.History()) != 1 {
		t.Errorf("history length = %d, want 1", len(s.History()))
	}
	if len(s.lock) != 0 {
		t.Error("the waiter did not release the lock")
	}
}

// TestLockWaitServesArrivalOrder: requests queued behind a held lock run in
// the order they arrived, as the history records.
func TestLockWaitServesArrivalOrder(t *testing.T) {
	s := newSession(t)
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.Share("ann", fmt.Sprintf("u%d", i), artifact.EditAccess); err != nil {
			t.Fatal(err)
		}
	}
	hold(s)
	s.SetLockWait(time.Minute)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, _, err := s.Request(fmt.Sprintf("u%d", i), skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
			errs <- err
		}(i)
		leaktest.WaitBlocked(t, lockWaiter, i+1) // u<i> is queued before u<i+1> starts
	}
	s.unlock()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued request: %v", err)
		}
	}
	hist := s.History()
	if len(hist) != n {
		t.Fatalf("history length = %d, want %d", len(hist), n)
	}
	for i, h := range hist {
		if want := fmt.Sprintf("u%d", i); h.User != want {
			t.Errorf("history[%d] ran for %s, want %s (arrival order)", i, h.User, want)
		}
	}
}

// TestLockWaitHonoursContext: cancelling a waiter's context ends its wait
// with the context error and leaves the holder's lock alone.
func TestLockWaitHonoursContext(t *testing.T) {
	s := newSession(t)
	hold(s)
	s.SetLockWait(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.RequestProgramCtx(ctx, "ann", nil, skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
		done <- err
	}()
	leaktest.WaitBlocked(t, lockWaiter, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(s.lock) != 1 || len(s.History()) != 0 {
		t.Error("a cancelled waiter must neither take the lock nor run")
	}
}

// TestLockFailsOnDoneContext: a request whose context is already done gets
// the context's error, not ErrBusy, against a held lock with or without a
// wait, and does not run against a free lock either.
func TestLockFailsOnDoneContext(t *testing.T) {
	s := newSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inv := skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}}
	if _, _, err := s.RequestProgramCtx(ctx, "ann", nil, inv); !errors.Is(err, context.Canceled) {
		t.Fatalf("free lock: err = %v, want context.Canceled", err)
	}
	if len(s.lock) != 0 {
		t.Fatal("a request with a done context took the lock")
	}
	hold(s)
	for _, wait := range []time.Duration{0, time.Minute} {
		s.SetLockWait(wait)
		if _, _, err := s.RequestProgramCtx(ctx, "ann", nil, inv); !errors.Is(err, context.Canceled) {
			t.Fatalf("held lock, wait %v: err = %v, want context.Canceled", wait, err)
		}
	}
	if len(s.lock) != 1 || len(s.History()) != 0 {
		t.Error("a request with a done context must neither take the lock nor run")
	}
}

// TestBusyRetryDoesNotRetryPermissionErrors: a membership rejection fails
// at once even with a lock wait set and the lock held.
func TestBusyRetryDoesNotRetryPermissionErrors(t *testing.T) {
	s := newSession(t)
	hold(s)
	s.SetLockWait(time.Minute)
	start := time.Now()
	_, _, err := s.Request("stranger", skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
	if err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want a permission error", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("permission error came after %v: the request waited on the lock", waited)
	}
	if len(s.lock) != 1 {
		t.Error("a rejected request must leave the holder's lock in place")
	}
}

// TestLockWaitRechecksMembershipOnHandoff: a member revoked while queued
// gets the permission error when handed the lock, and the lock goes on to
// the next waiter.
func TestLockWaitRechecksMembershipOnHandoff(t *testing.T) {
	s := newSession(t)
	if err := s.Share("ann", "bob", artifact.EditAccess); err != nil {
		t.Fatal(err)
	}
	hold(s)
	s.SetLockWait(time.Minute)
	run := func(user string, done chan<- error) {
		_, _, err := s.Request(user, skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
		done <- err
	}
	bob, ann := make(chan error, 1), make(chan error, 1)
	go run("bob", bob)
	leaktest.WaitBlocked(t, lockWaiter, 1)
	go run("ann", ann)
	leaktest.WaitBlocked(t, lockWaiter, 2)
	if err := s.Revoke("ann", "bob"); err != nil {
		t.Fatal(err)
	}
	s.unlock()
	if err := <-bob; err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("revoked waiter: err = %v, want a permission error", err)
	}
	if err := <-ann; err != nil {
		t.Fatalf("next waiter: %v", err)
	}
	if hist := s.History(); len(hist) != 1 || hist[0].User != "ann" {
		t.Errorf("history = %+v, want ann's request only", hist)
	}
}

// TestSaveArtifactCarriesDegradedAnnotation: an artifact saved from a
// degraded result keeps the §2.3 annotation.
func TestSaveArtifactCarriesDegradedAnnotation(t *testing.T) {
	reg2 := skills.NewRegistry()
	sample := dataset.MustNewTable("s", dataset.IntColumn("x", []int64{1, 2}, nil))
	err := reg2.Register(&skills.Definition{
		Name: "DegradedSrc", Summary: "fallback sample",
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			return &skills.Result{Table: sample, Degraded: true,
				DegradedNote: "10% block sample"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := skills.NewContext()
	ctx.Datasets["base"] = dataset.MustNewTable("base", dataset.IntColumn("id", []int64{1}, nil))
	s := New("deg", "ann", reg2, ctx)
	_, id, err := s.Request("ann", skills.Invocation{Skill: "DegradedSrc", Inputs: []string{"base"}, Output: "d"})
	if err != nil {
		t.Fatal(err)
	}
	store := artifact.NewStore()
	a, err := s.SaveArtifact(store, "ann", "deg-art", id, artifact.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Degraded || a.DegradedNote != "10% block sample" {
		t.Errorf("artifact lost the degraded annotation: %+v", a)
	}
}
