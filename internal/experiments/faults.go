package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/sqlengine"
)

// The faults experiment measures the robustness layer: the differential
// query corpus runs against a fault-injected cloud database at a grid of
// transient-fault rates with retries enabled, and reports recovered-query
// throughput plus the recovery invariant (every answer exact vs the
// fault-free run). All backoff waits on a virtual clock, so wall-clock
// throughput reflects work, not sleeping.

// FaultsCase is one fault-rate cell of the grid.
type FaultsCase struct {
	Rate            float64 `json:"transient_rate"`
	Queries         int     `json:"queries"`
	Exact           int     `json:"exact_results"`
	Errored         int     `json:"errored_both"`
	Divergent       int     `json:"divergent"`
	Recovered       int     `json:"recovered_queries"`
	Retries         int     `json:"total_retries"`
	TransientFaults int     `json:"transient_faults"`
	PermanentFaults int     `json:"permanent_faults"`
	VirtualBackoffS float64 `json:"virtual_backoff_seconds"`
	WallSeconds     float64 `json:"wall_seconds"`
	QueriesPerS     float64 `json:"queries_per_sec"`
}

// FaultsResult is the full fault-rate grid.
type FaultsResult struct {
	Cases []FaultsCase `json:"cases"`
}

// faultsCatalog adapts a cloud DB (possibly fault-wrapped) into a
// sqlengine.Catalog.
type faultsCatalog struct{ db cloud.DB }

func (c faultsCatalog) Table(name string) (*dataset.Table, error) { return c.db.Table(name) }

// Faults runs the corpus at each transient-fault rate and checks every
// retried answer against the fault-free reference.
func Faults(queryCount int, rates []float64, seed int64) (*FaultsResult, error) {
	rng := rand.New(rand.NewSource(seed))
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	for _, tbl := range sqlengine.CorpusTables(rng, 200, 60) {
		if err := db.CreateTable(tbl); err != nil {
			return nil, err
		}
	}
	queries := sqlengine.CorpusQueries(rng, queryCount)
	stmts := make([]*sqlengine.SelectStmt, len(queries))
	clean := make([]*dataset.Table, len(queries))
	cleanErr := make([]error, len(queries))
	for i, q := range queries {
		stmt, err := sqlengine.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", q, err)
		}
		stmts[i] = stmt
		clean[i], cleanErr[i] = sqlengine.ExecStmt(faultsCatalog{db}, stmt)
	}

	result := &FaultsResult{}
	for _, rate := range rates {
		clock := faults.NewVirtualClock(time.Unix(0, 0))
		inj := faults.NewInjector(faults.Schedule{Seed: seed, TransientRate: rate}, clock)
		catalog := faultsCatalog{faults.WrapDB(db, inj)}
		pol := faults.RetryPolicy{MaxAttempts: 16, BaseDelay: 10 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 2, JitterFrac: 0.3, Seed: seed}

		c := FaultsCase{Rate: rate, Queries: len(queries)}
		start := time.Now()
		for i := range queries {
			got, stats, err := faults.Do(context.Background(), clock, pol, time.Time{},
				func() (*dataset.Table, error) { return sqlengine.ExecStmt(catalog, stmts[i]) })
			c.Retries += stats.Attempts - 1
			if stats.Attempts > 1 {
				c.Recovered++
			}
			switch {
			case (err == nil) != (cleanErr[i] == nil):
				c.Divergent++
			case err != nil:
				c.Errored++
			case got.Equal(clean[i]):
				c.Exact++
			default:
				c.Divergent++
			}
		}
		wall := time.Since(start)
		c.WallSeconds = wall.Seconds()
		if wall > 0 {
			c.QueriesPerS = float64(len(queries)) / wall.Seconds()
		}
		c.TransientFaults, c.PermanentFaults = inj.Counts()
		c.VirtualBackoffS = clock.Slept().Seconds()
		if c.Divergent > 0 {
			return nil, fmt.Errorf("faults: %d divergent answers at rate %v — recovery changed results", c.Divergent, rate)
		}
		result.Cases = append(result.Cases, c)
	}
	return result, nil
}

// Report renders the grid as the EXPERIMENTS.md table.
func (r *FaultsResult) Report() string {
	var b strings.Builder
	b.WriteString("Fault injection: retried corpus vs fault-free reference (all answers exact)\n")
	b.WriteString("  rate  queries  exact  errored  recovered  retries  faults(t/p)  backoff(virt)  queries/s\n")
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "  %-5s %-8d %-6d %-8d %-10d %-8d %-12s %-14s %.0f\n",
			fmt.Sprintf("%.0f%%", c.Rate*100), c.Queries, c.Exact, c.Errored, c.Recovered, c.Retries,
			fmt.Sprintf("%d/%d", c.TransientFaults, c.PermanentFaults),
			time.Duration(c.VirtualBackoffS*float64(time.Second)).Round(time.Millisecond).String(),
			c.QueriesPerS)
	}
	return b.String()
}

// JSON renders the result for BENCH_faults.json.
func (r *FaultsResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
