package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"datachat/internal/dataset"
)

// runStreamAndReference pins the morsel pipeline to the row-at-a-time
// reference: the drained stream must equal the reference result, or both
// paths must fail.
func runStreamAndReference(t *testing.T, catalog MapCatalog, query string, opts StreamOptions) {
	t.Helper()
	stmt, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	var streamOut *dataset.Table
	rs, streamErr := ExecStreamStmt(catalog, stmt, opts)
	if streamErr == nil {
		streamOut, streamErr = rs.ReadAll()
	}
	refOut, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
	if (streamErr == nil) != (refErr == nil) {
		t.Fatalf("error divergence for %q:\n  stream:    %v\n  reference: %v", query, streamErr, refErr)
	}
	if streamErr != nil {
		return
	}
	if !streamOut.Equal(refOut) {
		t.Fatalf("result divergence for %q (fellBack=%v):\nstream:\n%s\nreference:\n%s",
			query, rs.FellBack(), streamOut, refOut)
	}
}

// TestDifferentialStreamVsReference runs every corpus query through the
// streaming pipeline under several chunk sizes (including a tiny one that
// forces many chunk boundaries) and both kernel settings.
func TestDifferentialStreamVsReference(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	variants := []StreamOptions{
		{},
		{ChunkRows: 7},
		{ChunkRows: 32, Options: Options{DisableVectorized: true}},
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			catalog := NewMapCatalog(CorpusTables(rng, 150+rng.Intn(200), 40+rng.Intn(40)))
			queries := CorpusQueries(rng, 40)
			for _, q := range queries {
				for _, opts := range variants {
					runStreamAndReference(t, catalog, q, opts)
				}
			}
		})
	}
}

// TestDifferentialStreamMidFallback forces the mid-stream switch to
// materialized execution after one chunk and checks the spliced row sequence
// still equals the reference result for every corpus query.
func TestDifferentialStreamMidFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	catalog := NewMapCatalog(CorpusTables(rng, 200, 50))
	opts := StreamOptions{ChunkRows: 13, ForceFallbackAfterChunks: 1}
	for _, q := range CorpusQueries(rng, 40) {
		runStreamAndReference(t, catalog, q, opts)
	}
}

// TestStreamEmptyTables pins the zero-row edges: the stream must still emit
// a schema-bearing chunk and match the reference.
func TestStreamEmptyTables(t *testing.T) {
	empty := dataset.MustNewTable("t1",
		dataset.IntColumn("i", nil, nil),
		dataset.FloatColumn("f", nil, nil),
		dataset.StringColumn("s", nil, nil),
		dataset.BoolColumn("b", nil, nil),
		dataset.TimeColumn("ts", nil, nil),
	)
	t2 := dataset.MustNewTable("t2",
		dataset.IntColumn("k", []int64{1, 2}, nil),
		dataset.StringColumn("s2", []string{"a", "b"}, nil),
		dataset.FloatColumn("v", []float64{1, 2}, nil),
	)
	catalog := NewMapCatalog(map[string]*dataset.Table{"t1": empty, "t2": t2})
	for _, q := range []string{
		"SELECT * FROM t1 WHERE i > 0",
		"SELECT i, f FROM t1 ORDER BY i",
		"SELECT s, COUNT(*) AS c FROM t1 GROUP BY s",
		"SELECT t1.i, t2.v FROM t1 JOIN t2 ON t1.i = t2.k",
		"SELECT t1.i, t2.v FROM t1 LEFT JOIN t2 ON t1.i = t2.k",
		"SELECT COUNT(*) AS c FROM t1",
		"SELECT DISTINCT s FROM t1",
	} {
		runStreamAndReference(t, catalog, q, StreamOptions{ChunkRows: 4})
	}
}

// TestStreamFirstChunkIsIncremental checks the defining morsel property: a
// streaming filter/projection emits its first chunk after scanning only a
// prefix of the input, with no pipeline-breaker buffering at all, at every
// worker count. Workers must report the count the pipeline ran on: an
// early-stopping LIMIT runs on one worker whatever Parallelism asks for.
func TestStreamFirstChunkIsIncremental(t *testing.T) {
	const rows = 50_000
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"big": dataset.MustNewTable("big", dataset.IntColumn("n", vals, nil)),
	})
	for _, tc := range []struct {
		query       string
		parallelism int
		workers     int
	}{
		{"SELECT n FROM big WHERE n >= 10", 0, 1},
		{"SELECT n FROM big WHERE n >= 10", 4, 4},
		{"SELECT n FROM big WHERE n >= 10 LIMIT 500", 4, 1},
	} {
		rs, err := ExecStream(catalog, tc.query, StreamOptions{ChunkRows: 100, Parallelism: tc.parallelism})
		if err != nil {
			t.Fatal(err)
		}
		chunk, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		// The first 100-row morsel loses its 10 filtered rows: the chunk
		// arrives after scanning only a 100-row prefix of the 50k-row input.
		if chunk == nil || chunk.NumRows() != 90 {
			t.Fatalf("%q: first chunk = %v, want 90 rows", tc.query, chunk)
		}
		if got := chunk.Columns()[0].Value(0); got != dataset.Int(10) {
			t.Fatalf("%q: first row = %v, want 10", tc.query, got)
		}
		if rs.PeakBufferedRows() != 0 {
			t.Fatalf("%q: streaming filter buffered %d rows; want 0", tc.query, rs.PeakBufferedRows())
		}
		if rs.FellBack() {
			t.Fatalf("%q: filter/projection should not fall back", tc.query)
		}
		if got := rs.Workers(); got != tc.workers {
			t.Fatalf("%q at Parallelism %d: Workers() = %d, want %d", tc.query, tc.parallelism, got, tc.workers)
		}
		rs.Close()
	}
}

// TestStreamBudgetError checks pipeline breakers fail loudly with the typed
// overflow error instead of buffering past the budget. ORDER BY needs spill
// disabled (it spills to disk by default now); join build sides cannot spill
// and must fail either way.
func TestStreamBudgetError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	catalog := NewMapCatalog(CorpusTables(rng, 500, 10))
	for _, q := range []string{
		"SELECT i FROM t1 ORDER BY i",
		"SELECT t1.i, t2.v FROM t1 JOIN t2 ON t1.i = t2.k",
	} {
		rs, err := ExecStream(catalog, q, StreamOptions{MaxBufferedRows: 5, DisableSpill: true})
		if err == nil {
			_, err = rs.ReadAll()
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%q: error = %v, want *BudgetError", q, err)
		}
		if be.Budget != 5 || be.Buffered <= be.Budget || be.Op == "" {
			t.Fatalf("%q: malformed budget error %+v", q, be)
		}
	}
}

// TestStreamGroupByConstantMemory checks the streaming group-by working set
// scales with group count, not input rows.
func TestStreamGroupByConstantMemory(t *testing.T) {
	const rows = 20_000
	keys := make([]int64, rows)
	vals := make([]float64, rows)
	for i := range keys {
		keys[i] = int64(i % 13)
		vals[i] = float64(i)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"m": dataset.MustNewTable("m",
			dataset.IntColumn("k", keys, nil),
			dataset.FloatColumn("v", vals, nil)),
	})
	rs, err := ExecStream(catalog, "SELECT k, SUM(v) AS s FROM m GROUP BY k ORDER BY k", StreamOptions{ChunkRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rs.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 13 {
		t.Fatalf("got %d groups, want 13", out.NumRows())
	}
	if peak := rs.PeakBufferedRows(); peak != 13 {
		t.Fatalf("peak buffered rows = %d, want 13 (one per group)", peak)
	}
}

// TestStreamMidFallbackContinuesSequence pins that the forced fallback
// resumes after the already-emitted prefix rather than restarting.
func TestStreamMidFallbackContinuesSequence(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"seq": dataset.MustNewTable("seq", dataset.IntColumn("n", vals, nil)),
	})
	rs, err := ExecStream(catalog, "SELECT n FROM seq", StreamOptions{ChunkRows: 100, ForceFallbackAfterChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	chunks := 0
	for {
		chunk, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		chunks++
		c := chunk.Columns()[0]
		for r := 0; r < c.Len(); r++ {
			if got := c.Value(r); got != dataset.Int(next) {
				t.Fatalf("row %d = %v after fallback, want %d", next, got, next)
			}
			next++
		}
	}
	if next != 1000 {
		t.Fatalf("drained %d rows, want 1000", next)
	}
	if !rs.FellBack() {
		t.Fatal("forced fallback did not trigger")
	}
}
