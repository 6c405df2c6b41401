package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"datachat/internal/skills"
)

// TestHammerOneSessionThroughBusyRetries: N goroutines hammer a single
// platform session with a lock wait set. Every request must win the §2.4
// lock in turn — no lost updates (the synchronized history records all N),
// no deadlocks, and every output is materialized.
func TestHammerOneSessionThroughBusyRetries(t *testing.T) {
	p := New()
	s, err := p.CreateSession("hammer", "user")
	if err != nil {
		t.Fatal(err)
	}
	s.Context().Datasets["people"] = seedTable()
	s.SetLockWait(time.Minute)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Request("user", skills.Invocation{Skill: "KeepRows",
				Inputs: []string{"people"},
				Args:   skills.Args{"condition": fmt.Sprintf("v > %d", i%7)},
				Output: fmt.Sprintf("out%d", i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d lost despite the lock wait: %v", i, err)
		}
	}
	hist := s.History()
	if len(hist) != n {
		t.Fatalf("history records %d requests, want %d (lost updates)", len(hist), n)
	}
	for _, h := range hist {
		if h.Error != "" {
			t.Errorf("history entry failed: %+v", h)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := s.Context().Dataset(fmt.Sprintf("out%d", i)); err != nil {
			t.Errorf("output out%d not materialized: %v", i, err)
		}
	}
}
