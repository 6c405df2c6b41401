package scheduler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datachat/internal/board"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/leaktest"
	"datachat/internal/recipe"
	"datachat/internal/skills"
)

func metricsCSV(n, seed int) string {
	var b strings.Builder
	b.WriteString("mid,host,val\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,h%d,%d\n", i, i%7, (i*31+seed)%1000)
	}
	return b.String()
}

func metricsTable(t *testing.T, n, seed int) *dataset.Table {
	t.Helper()
	tb, err := dataset.ReadCSVString("metrics", metricsCSV(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func metricsRecipe(t *testing.T) *recipe.Recipe {
	t.Helper()
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable",
		Args: skills.Args{"database": "wh", "table": "metrics"}, Output: "metrics"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"metrics"},
		Args: skills.Args{"condition": "val >= 500"}, Output: "hot"})
	r, err := recipe.FromGraph("hot-metrics", g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestRig(t *testing.T) (*core.Platform, *cloud.Database, *board.Hub, *Scheduler, *faults.VirtualClock) {
	t.Helper()
	p := core.New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	if err := db.CreateTable(metricsTable(t, 500, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	clock := faults.NewVirtualClock(time.Unix(1_700_000_000, 0))
	hub := board.NewHub()
	hub.SetClock(clock)
	s := New(p, hub)
	s.SetClock(clock)
	return p, db, hub, s, clock
}

// TestIncrementalRefreshSkipsUnchangedScans is the tentpole acceptance
// path: a job on the virtual clock re-runs at its trigger times; the
// second refresh with unchanged inputs executes ZERO cloud scans (the
// content fingerprint keys the cache) and reports every plan node
// unchanged; replacing the table's data makes the third refresh scan
// again; each refresh reaches a board subscriber in order.
func TestIncrementalRefreshSkipsUnchangedScans(t *testing.T) {
	_, db, hub, s, clock := newTestRig(t)
	ctx := context.Background()

	if _, err := s.Add(Spec{Name: "daily", User: "alice", Recipe: metricsRecipe(t),
		Every: time.Minute, Board: "ops", Tile: "hot"}); err != nil {
		t.Fatal(err)
	}
	if n := s.RunDue(ctx); n != 0 {
		t.Fatalf("ran %d jobs before the first trigger", n)
	}

	// Refresh 1: cold, must scan.
	clock.Advance(time.Minute)
	if n := s.RunDue(ctx); n != 1 {
		t.Fatalf("first trigger ran %d jobs", n)
	}
	q1 := db.Meter().Queries()
	if q1 == 0 {
		t.Fatal("first refresh executed no cloud scans")
	}

	// Refresh 2: data unchanged — zero scans, all fingerprints unchanged.
	clock.Advance(time.Minute)
	if n := s.RunDue(ctx); n != 1 {
		t.Fatalf("second trigger ran %d jobs", n)
	}
	if q2 := db.Meter().Queries(); q2 != q1 {
		t.Fatalf("second refresh scanned the warehouse: queries %d -> %d", q1, q2)
	}
	info, _ := s.Get("daily")
	rec2 := info.History[len(info.History)-1]
	if rec2.FPChanged != 0 || rec2.FPUnchanged == 0 || rec2.FPUnchanged != rec2.FPTotal {
		t.Fatalf("unchanged refresh diff = %+v", rec2)
	}
	if rec2.Stats.CacheHits == 0 {
		t.Fatalf("unchanged refresh had no cache hits: %+v", rec2.Stats)
	}

	// Out-of-band data refresh, then refresh 3: must scan again and report
	// changed fingerprints.
	if err := db.ReplaceTable(metricsTable(t, 500, 2)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if n := s.RunDue(ctx); n != 1 {
		t.Fatalf("third trigger ran %d jobs", n)
	}
	if q3 := db.Meter().Queries(); q3 == q1 {
		t.Fatal("refresh after ReplaceTable executed no cloud scans")
	}
	info, _ = s.Get("daily")
	rec3 := info.History[len(info.History)-1]
	if rec3.FPChanged == 0 {
		t.Fatalf("changed refresh diff = %+v", rec3)
	}

	// The board saw all three refreshes, in order, with run metadata.
	b, ok := hub.Get("ops")
	if !ok {
		t.Fatal("scheduler did not create the board")
	}
	_, backlog, err := b.Subscribe(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 3 {
		t.Fatalf("board backlog has %d updates; want 3", len(backlog))
	}
	for i, u := range backlog {
		if u.Job != "daily" || u.Seq != i+1 || u.Version != uint64(i+1) || u.Tile != "hot" {
			t.Fatalf("update %d = %+v", i, u)
		}
		if u.Table == nil || u.RunError != "" {
			t.Fatalf("update %d has no table / an error: %+v", i, u)
		}
	}
	if backlog[1].FPChanged != 0 || backlog[2].FPChanged == 0 {
		t.Fatalf("board updates don't carry the diff: %+v vs %+v", backlog[1], backlog[2])
	}

	st := s.Stats()
	if st.Runs != 3 || st.Failures != 0 || st.Published != 3 || st.NodesUnchanged == 0 {
		t.Fatalf("scheduler stats = %+v", st)
	}
}

func TestGateSkipsAndReleases(t *testing.T) {
	_, _, _, s, clock := newTestRig(t)
	ctx := context.Background()
	if _, err := s.Add(Spec{Name: "j", User: "alice", Recipe: metricsRecipe(t), Every: time.Second, Board: "b"}); err != nil {
		t.Fatal(err)
	}

	releases := 0
	throttle := true
	s.SetGate(func(context.Context) (func(), error) {
		if throttle {
			return nil, errors.New("background throttled")
		}
		return func() { releases++ }, nil
	})

	clock.Advance(time.Second)
	s.RunDue(ctx)
	info, _ := s.Get("j")
	if info.Runs != 0 || len(info.History) != 1 || !info.History[0].Skipped {
		t.Fatalf("throttled run not recorded as skip: %+v", info)
	}
	if !strings.Contains(info.History[0].SkipReason, "admission") {
		t.Fatalf("skip reason = %q", info.History[0].SkipReason)
	}
	if st := s.Stats(); st.Skips != 1 || st.Runs != 0 || st.Published != 0 {
		t.Fatalf("stats after throttle = %+v", st)
	}

	throttle = false
	clock.Advance(time.Second)
	s.RunDue(ctx)
	if releases != 1 {
		t.Fatalf("gate released %d times; want 1", releases)
	}
	if info, _ := s.Get("j"); info.Runs != 1 {
		t.Fatalf("runs = %d after admitted run", info.Runs)
	}
}

func TestMaxRunsAndFailurePublishing(t *testing.T) {
	_, _, hub, s, clock := newTestRig(t)
	ctx := context.Background()

	// A recipe against a database that was never connected: every run
	// fails, and the board must see the error rather than silence.
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable",
		Args: skills.Args{"database": "nope", "table": "t"}, Output: "t"})
	bad, err := recipe.FromGraph("bad", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(Spec{Name: "bad", User: "alice", Recipe: bad, Every: time.Second, Board: "errs", MaxRuns: 2}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		clock.Advance(time.Second)
		s.RunDue(ctx)
	}
	info, _ := s.Get("bad")
	if !info.Done || info.Runs != 2 {
		t.Fatalf("MaxRuns not honored: %+v", info)
	}
	if st := s.Stats(); st.Failures != 2 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
	b, ok := hub.Get("errs")
	if !ok {
		t.Fatal("no error board")
	}
	_, backlog, err := b.Subscribe(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 2 || backlog[0].RunError == "" || backlog[0].Table != nil {
		t.Fatalf("failure updates = %+v", backlog)
	}

	if _, err := s.RunNow(ctx, "missing"); err == nil {
		t.Fatal("RunNow on unknown job succeeded")
	}
	rec, err := s.RunNow(ctx, "bad")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Err == "" {
		t.Fatalf("forced run of failing job reported no error: %+v", rec)
	}
}

func TestLoopOnVirtualClock(t *testing.T) {
	_, _, _, s, _ := newTestRig(t)
	if _, err := s.Add(Spec{Name: "loop", User: "alice", Recipe: metricsRecipe(t),
		Every: 10 * time.Second, Board: "b", MaxRuns: 3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// On the virtual clock every Sleep advances time instantly, so the
		// loop replays the whole schedule as fast as the runs execute.
		s.Loop(ctx, time.Second)
	}()
	deadline := time.After(10 * time.Second)
	for {
		if info, _ := s.Get("loop"); info.Done {
			break
		}
		select {
		case <-deadline:
			t.Fatal("loop never completed the job's 3 runs")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if info, _ := s.Get("loop"); info.Runs != 3 {
		t.Fatalf("runs = %d; want 3", info.Runs)
	}
}

// holdJobSession runs a request on the job's session that holds its §2.4
// lock until release is closed; it returns once the lock is held, and the
// request's error arrives on the returned channel.
func holdJobSession(t *testing.T, p *core.Platform, session string, release <-chan struct{}) <-chan error {
	t.Helper()
	started := make(chan struct{})
	err := p.Registry.Register(&skills.Definition{
		Name: "Block", Summary: "test skill: block until released", Volatile: true,
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			close(started)
			<-release
			tab, err := dataset.NewTable(inv.Output, dataset.IntColumn("ok", []int64{1}, nil))
			if err != nil {
				return nil, err
			}
			return &skills.Result{Table: tab}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.EnsureSession(session, "alice")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := sess.Request("alice", skills.Invocation{Skill: "Block", Output: "hold"})
		done <- err
	}()
	<-started
	return done
}

// TestRunWaitsForReleasedSessionLock: a run that finds an interactive
// request holding its session waits, and completes and publishes once the
// request releases the lock within the wait. The wait is widened from
// defaultLockWait through the lockWait test seam, so the outcome does not
// depend on how quickly the holder is scheduled after the release.
func TestRunWaitsForReleasedSessionLock(t *testing.T) {
	p, _, hub, s, _ := newTestRig(t)
	s.lockWait = time.Minute
	if _, err := s.Add(Spec{Name: "j", User: "alice", Recipe: metricsRecipe(t), Every: time.Second, Board: "b"}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	holder := holdJobSession(t, p, "sched:j", release)

	type result struct {
		rec RunRecord
		err error
	}
	ran := make(chan result, 1)
	go func() {
		rec, err := s.RunNow(context.Background(), "j")
		ran <- result{rec, err}
	}()
	leaktest.WaitBlocked(t, "session.(*Session).lockForUser", 1)
	close(release)
	if err := <-holder; err != nil {
		t.Fatalf("interactive request: %v", err)
	}
	r := <-ran
	if r.err != nil || r.rec.Skipped || r.rec.Err != "" {
		t.Fatalf("run after release = %+v, %v; want a completed run", r.rec, r.err)
	}
	if r.rec.BoardVersion == 0 {
		t.Fatal("completed run published no board version")
	}
	if b, ok := hub.Get("b"); !ok || b.Snapshot().Version != r.rec.BoardVersion {
		t.Fatalf("board missing or behind the run's version %d", r.rec.BoardVersion)
	}
	if st := s.Stats(); st.Runs != 1 || st.Skips != 0 || st.Published != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRunSkipsWhenSessionStaysBusy: a run whose session stays held past
// defaultLockWait is recorded as a "session busy" skip — no run counted and
// no board version published.
func TestRunSkipsWhenSessionStaysBusy(t *testing.T) {
	p, _, hub, s, _ := newTestRig(t)
	if _, err := s.Add(Spec{Name: "j", User: "alice", Recipe: metricsRecipe(t), Every: time.Second, Board: "b"}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	holder := holdJobSession(t, p, "sched:j", release)

	start := time.Now()
	rec, err := s.RunNow(context.Background(), "j")
	waited := time.Since(start)
	close(release)
	if err := <-holder; err != nil {
		t.Fatalf("interactive request: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Skipped || rec.SkipReason != "session busy" || rec.BoardVersion != 0 {
		t.Fatalf("run against a held session = %+v; want a session-busy skip", rec)
	}
	if waited < defaultLockWait {
		t.Errorf("skipped after %v, before the %v lock wait", waited, defaultLockWait)
	}
	info, _ := s.Get("j")
	if info.Runs != 0 || len(info.History) != 1 {
		t.Fatalf("job after skip = %+v", info)
	}
	if _, ok := hub.Get("b"); ok {
		t.Fatal("a skipped run created or published to the board")
	}
	if st := s.Stats(); st.Runs != 0 || st.Skips != 1 || st.Published != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
