package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/sqlengine"
)

// The chaos suite replays the differential harness's randomized query
// corpus against a fault-injected cloud database with retries enabled and
// pins the recovery invariant: recovery must never change answers. Every
// query either returns the exact fault-free result (after retries) or fails
// loudly — never a silent wrong answer. All waiting is virtual-time, so the
// suite runs in milliseconds even at a 30% fault rate under -race.

// chaosCatalog adapts a fault-injected DB into a sqlengine.Catalog.
type chaosCatalog struct{ db cloud.DB }

func (c chaosCatalog) Table(name string) (*dataset.Table, error) { return c.db.Table(name) }

func newChaosDB(t *testing.T, seed int64) *cloud.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	for _, tbl := range sqlengine.CorpusTables(rng, 150+rng.Intn(150), 40+rng.Intn(40)) {
		if err := db.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestChaosCorpusExactUnderTransientFaults: at transient-fault rates up to
// 30%, retried execution over the faulty database returns byte-identical
// results to the fault-free run for every corpus query.
func TestChaosCorpusExactUnderTransientFaults(t *testing.T) {
	for _, rate := range []float64{0.1, 0.3} {
		rate := rate
		t.Run(fmt.Sprintf("rate%.0f%%", rate*100), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(21))
			db := newChaosDB(t, 5)
			queries := sqlengine.CorpusQueries(rng, 60)

			// Fault-free reference results first.
			clean := make([]*dataset.Table, len(queries))
			cleanErr := make([]error, len(queries))
			for i, q := range queries {
				stmt, err := sqlengine.Parse(q)
				if err != nil {
					t.Fatalf("parse %q: %v", q, err)
				}
				clean[i], cleanErr[i] = sqlengine.ExecStmt(chaosCatalog{db}, stmt)
			}

			clock := NewVirtualClock(time.Unix(0, 0))
			inj := NewInjector(Schedule{Seed: 99, TransientRate: rate}, clock)
			faulty := chaosCatalog{WrapDB(db, inj)}
			pol := RetryPolicy{MaxAttempts: 16, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, JitterFrac: 0.3, Seed: 1}

			recovered := 0
			for i, q := range queries {
				stmt, err := sqlengine.Parse(q)
				if err != nil {
					t.Fatalf("parse %q: %v", q, err)
				}
				got, stats, err := Do(context.Background(), clock, pol, time.Time{},
					func() (*dataset.Table, error) { return sqlengine.ExecStmt(faulty, stmt) })
				if stats.Attempts > 1 {
					recovered++
				}
				if (err == nil) != (cleanErr[i] == nil) {
					t.Fatalf("error divergence for %q under faults:\n  faulty: %v\n  clean:  %v", q, err, cleanErr[i])
				}
				if err != nil {
					continue
				}
				if !got.Equal(clean[i]) {
					t.Fatalf("silent wrong answer for %q after %d attempts:\nfaulty:\n%s\nclean:\n%s",
						q, stats.Attempts, got, clean[i])
				}
			}
			transient, permanent := inj.Counts()
			if transient == 0 {
				t.Fatalf("no faults injected at rate %v", rate)
			}
			if permanent != 0 {
				t.Fatalf("transient-only schedule injected %d permanent faults", permanent)
			}
			if recovered == 0 {
				t.Fatal("no query ever needed a retry — the chaos run exercised nothing")
			}
			t.Logf("rate %.0f%%: %d faults injected, %d/%d queries recovered via retry, %v virtual backoff",
				rate*100, transient, recovered, len(queries), clock.Slept())
		})
	}
}

// TestChaosCorpusConcurrent: the same invariant with queries hammering the
// shared injector from parallel workers (the -race half of the suite).
func TestChaosCorpusConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := newChaosDB(t, 6)
	queries := sqlengine.CorpusQueries(rng, 40)

	clean := make([]*dataset.Table, len(queries))
	cleanErr := make([]error, len(queries))
	stmts := make([]*sqlengine.SelectStmt, len(queries))
	for i, q := range queries {
		stmt, err := sqlengine.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		stmts[i] = stmt
		clean[i], cleanErr[i] = sqlengine.ExecStmt(chaosCatalog{db}, stmt)
	}

	clock := NewVirtualClock(time.Unix(0, 0))
	inj := NewInjector(Schedule{Seed: 4, TransientRate: 0.3}, clock)
	faulty := chaosCatalog{WrapDB(db, inj)}
	pol := RetryPolicy{MaxAttempts: 20, BaseDelay: time.Millisecond, JitterFrac: 0.2, Seed: 2}

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				got, _, err := Do(context.Background(), clock, pol, time.Time{},
					func() (*dataset.Table, error) { return sqlengine.ExecStmt(faulty, stmts[i]) })
				if (err == nil) != (cleanErr[i] == nil) {
					errs[i] = fmt.Errorf("error divergence for %q: faulty=%v clean=%v", queries[i], err, cleanErr[i])
					continue
				}
				if err == nil && !got.Equal(clean[i]) {
					errs[i] = fmt.Errorf("silent wrong answer for %q", queries[i])
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if transient, _ := inj.Counts(); transient == 0 {
		t.Fatal("concurrent chaos run injected no faults")
	}
}
