package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"datachat/internal/dataset"
	"datachat/internal/leaktest"
)

// drainChunks pulls every chunk off a stream, preserving chunk boundaries.
func drainChunks(rs *RowStream) ([]*dataset.Table, error) {
	var out []*dataset.Table
	for {
		c, err := rs.Next()
		if err != nil {
			return out, err
		}
		if c == nil {
			return out, nil
		}
		out = append(out, c)
	}
}

// runParallelVsSerial pins a multi-worker stream chunk-for-chunk against the
// one-worker stream of the same query: same chunk count, same rows per chunk,
// same values — or both streams fail. Both runs use the same operators, so
// this checks what the worker count changes (morsel reassembly, group-by
// partitioning, DISTINCT sharding, spill races); the operators themselves
// are pinned to the row executor by TestDifferentialStreamVsReference.
func runParallelVsSerial(t *testing.T, catalog MapCatalog, query string, base StreamOptions, workers int) {
	t.Helper()
	serialOpts := base
	serialOpts.Parallelism = 0
	parOpts := base
	parOpts.Parallelism = workers

	srs, serr := ExecStream(catalog, query, serialOpts)
	var serialChunks []*dataset.Table
	if serr == nil {
		serialChunks, serr = drainChunks(srs)
	}
	prs, perr := ExecStream(catalog, query, parOpts)
	var parChunks []*dataset.Table
	if perr == nil {
		parChunks, perr = drainChunks(prs)
	}
	if (serr == nil) != (perr == nil) {
		t.Fatalf("error divergence for %q (workers=%d):\n  serial:   %v\n  parallel: %v", query, workers, serr, perr)
	}
	if serr != nil {
		return
	}
	if len(serialChunks) != len(parChunks) {
		t.Fatalf("chunk count divergence for %q (workers=%d): serial %d, parallel %d",
			query, workers, len(serialChunks), len(parChunks))
	}
	for i := range serialChunks {
		if serialChunks[i].NumRows() != parChunks[i].NumRows() {
			t.Fatalf("chunk %d row count divergence for %q (workers=%d): serial %d, parallel %d",
				i, query, workers, serialChunks[i].NumRows(), parChunks[i].NumRows())
		}
		if !serialChunks[i].Equal(parChunks[i]) {
			t.Fatalf("chunk %d divergence for %q (workers=%d):\nserial:\n%s\nparallel:\n%s",
				i, query, workers, serialChunks[i], parChunks[i])
		}
	}
}

// TestDifferentialParallelVsSerial runs the randomized corpus through the
// morsel dispatcher at several worker counts and pins every output chunk
// against the one-worker pipeline — including tiny chunks (many fan-out
// rounds), disabled kernels, and a forced mid-stream fallback.
func TestDifferentialParallelVsSerial(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	variants := []StreamOptions{
		{},
		{ChunkRows: 7},
		{ChunkRows: 32, Options: Options{DisableVectorized: true}},
		{ChunkRows: 13, ForceFallbackAfterChunks: 1},
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 100))
			catalog := NewMapCatalog(CorpusTables(rng, 150+rng.Intn(200), 40+rng.Intn(40)))
			queries := CorpusQueries(rng, 30)
			for _, q := range queries {
				for _, opts := range variants {
					for _, workers := range []int{2, 4} {
						runParallelVsSerial(t, catalog, q, opts, workers)
					}
				}
			}
		})
	}
}

// TestDifferentialForcedSpill forces the spill layer on (tiny budget, spill
// dir in a temp dir) and pins the spilled stream against the unbudgeted
// reference result, serial and parallel. At least one query must actually
// spill, and the spill dir must be empty after every drain.
func TestDifferentialForcedSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	catalog := NewMapCatalog(CorpusTables(rng, 400, 60))
	dir := t.TempDir()
	queries := []string{
		"SELECT i, s FROM t1 ORDER BY i, s",
		"SELECT f, i FROM t1 WHERE f > 10 ORDER BY f DESC",
		"SELECT s, COUNT(*) AS c, SUM(f) AS sf FROM t1 GROUP BY s ORDER BY s",
		"SELECT i, AVG(f) AS af, MIN(s) AS ms FROM t1 GROUP BY i",
		"SELECT i, COUNT(*) AS c FROM t1 GROUP BY i HAVING COUNT(*) > 1 ORDER BY c DESC, i",
		"SELECT DISTINCT s, COUNT(*) AS c FROM t1 GROUP BY i, s",
	}
	spilled := false
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		ref, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
		if refErr != nil {
			t.Fatalf("reference %q: %v", q, refErr)
		}
		for _, workers := range []int{0, 4} {
			rs, err := ExecStream(catalog, q, StreamOptions{
				ChunkRows:       64,
				MaxBufferedRows: 50,
				SpillDir:        dir,
				Parallelism:     workers,
			})
			if err != nil {
				t.Fatalf("%q (workers=%d): %v", q, workers, err)
			}
			out, err := rs.ReadAll()
			if err != nil {
				t.Fatalf("%q (workers=%d): drain: %v", q, workers, err)
			}
			if !out.Equal(ref) {
				t.Fatalf("spilled result divergence for %q (workers=%d):\nstream:\n%s\nreference:\n%s",
					q, workers, out, ref)
			}
			st := rs.SpillStats()
			if st.SpilledRows > 0 {
				spilled = true
				if st.Runs == 0 || st.SpilledBytes == 0 {
					t.Fatalf("%q: inconsistent spill stats %+v", q, st)
				}
			}
			assertNoSpillFiles(t, dir)
		}
	}
	if !spilled {
		t.Fatal("no query spilled; the forced-spill suite is not exercising the spill layer")
	}
}

// TestStreamSpillCompletesWhereBudgetFailed is the acceptance shape: under a
// budget the serial engine refused, the spilling engine completes with
// nonzero SpilledRows and the exact reference result.
func TestStreamSpillCompletesWhereBudgetFailed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	catalog := NewMapCatalog(CorpusTables(rng, 2000, 10))
	const query = "SELECT i, s, COUNT(*) AS c, SUM(f) AS sf FROM t1 GROUP BY i, s ORDER BY i, s"
	budget := StreamOptions{ChunkRows: 128, MaxBufferedRows: 100}

	strict := budget
	strict.DisableSpill = true
	rs, err := ExecStream(catalog, query, strict)
	if err == nil {
		_, err = rs.ReadAll()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("strict budget: error = %v, want *BudgetError", err)
	}

	dir := t.TempDir()
	spill := budget
	spill.SpillDir = dir
	rs, err = ExecStream(catalog, query, spill)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rs.ReadAll()
	if err != nil {
		t.Fatalf("spilling engine failed under the same budget: %v", err)
	}
	if st := rs.SpillStats(); st.SpilledRows == 0 {
		t.Fatalf("spill stats = %+v, want nonzero SpilledRows", st)
	}
	ref, err := Exec(catalog, query)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(ref) {
		t.Fatalf("spilled result diverges:\nstream:\n%s\nreference:\n%s", out, ref)
	}
	// Spill-pass liveness may overrun the budget by one state per partition.
	if peak := rs.PeakBufferedRows(); peak > 100+rs.Workers() {
		t.Fatalf("peak buffered rows = %d, want <= budget 100 + %d workers", peak, rs.Workers())
	}
	assertNoSpillFiles(t, dir)
}

// TestStreamBudgetRacingSpill drives many concurrent reducers into a tiny
// shared budget so spill activation races across partitions, and pins the
// result against the reference.
func TestStreamBudgetRacingSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	catalog := NewMapCatalog(CorpusTables(rng, 1500, 30))
	dir := t.TempDir()
	for _, q := range []string{
		"SELECT i, COUNT(*) AS c FROM t1 GROUP BY i",
		"SELECT s, i, SUM(f) AS sf FROM t1 GROUP BY s, i ORDER BY s, i",
	} {
		ref, err := Exec(catalog, q)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ExecStream(catalog, q, StreamOptions{
			ChunkRows:       32,
			MaxBufferedRows: 60,
			SpillDir:        dir,
			Parallelism:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rs.ReadAll()
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if !out.Equal(ref) {
			t.Fatalf("%q diverges under racing spill:\nstream:\n%s\nreference:\n%s", q, out, ref)
		}
		assertNoSpillFiles(t, dir)
	}
}

// TestStreamCancellationMidFanOut cancels the stream's context while workers
// are mid-flight: the consumer must observe an error promptly and every
// spill file must be gone.
func TestStreamCancellationMidFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	catalog := NewMapCatalog(CorpusTables(rng, 5000, 20))
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := ExecStream(catalog, "SELECT i, SUM(f) AS sf FROM t1 GROUP BY i ORDER BY i", StreamOptions{
		ChunkRows:       16,
		MaxBufferedRows: 40,
		SpillDir:        dir,
		Parallelism:     4,
		Ctx:             ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var lastErr error
	for i := 0; i < 10_000; i++ {
		c, err := rs.Next()
		if err != nil {
			lastErr = err
			break
		}
		if c == nil {
			break
		}
	}
	// Cancellation races the drain: either the stream finished first (fine)
	// or it must surface the cancellation cause.
	if lastErr != nil && !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", lastErr)
	}
	rs.Close()
	assertNoSpillFiles(t, dir)
}

// TestStreamSpillCleanupOnError checks a mid-stream evaluation error tears
// down a spilling parallel pipeline without leaking temp files.
func TestStreamSpillCleanupOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	catalog := NewMapCatalog(CorpusTables(rng, 2000, 10))
	dir := t.TempDir()
	// SUM(s) over strings fails during aggregation, after spilling started.
	rs, err := ExecStream(catalog, "SELECT i, SUM(s) AS bad FROM t1 GROUP BY i", StreamOptions{
		ChunkRows:       32,
		MaxBufferedRows: 50,
		SpillDir:        dir,
		Parallelism:     4,
	})
	if err == nil {
		_, err = rs.ReadAll()
	}
	if err == nil {
		t.Fatal("SUM over strings succeeded; want an evaluation error")
	}
	var be *BudgetError
	if errors.As(err, &be) {
		t.Fatalf("got BudgetError %v; want the evaluation error", err)
	}
	assertNoSpillFiles(t, dir)
}

// TestStreamCloseReleasesSpillFiles checks abandoning a stream early (Close
// without draining) removes on-disk runs.
func TestStreamCloseReleasesSpillFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	catalog := NewMapCatalog(CorpusTables(rng, 3000, 10))
	dir := t.TempDir()
	rs, err := ExecStream(catalog, "SELECT i, f FROM t1 ORDER BY i, f", StreamOptions{
		ChunkRows:       64,
		MaxBufferedRows: 100,
		SpillDir:        dir,
		Parallelism:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	if rs.SpillStats().Runs == 0 {
		t.Fatal("ORDER BY under a 100-row budget on 3000 rows should have spilled")
	}
	rs.Close()
	assertNoSpillFiles(t, dir)
}

// TestParallelDistinctSharding pins the sharded DISTINCT against its
// one-shard run on a corpus slice with heavy duplication.
func TestParallelDistinctSharding(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	catalog := NewMapCatalog(CorpusTables(rng, 900, 40))
	for _, q := range []string{
		"SELECT DISTINCT s FROM t1",
		"SELECT DISTINCT s, b FROM t1",
		"SELECT DISTINCT i, s FROM t1 WHERE i >= 0",
	} {
		for _, workers := range []int{2, 4, 8} {
			runParallelVsSerial(t, catalog, q, StreamOptions{ChunkRows: 17}, workers)
		}
	}
}

// TestStreamNoGoroutineLeak runs a grouped, a DISTINCT and an ORDER BY
// stream at one and four workers and ends each one four ways — full drain,
// Close after the first chunk, and context cancellation before and after the
// first chunk — checking that every goroutine the stream started has exited.
func TestStreamNoGoroutineLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	catalog := NewMapCatalog(CorpusTables(rng, 3000, 10))
	queries := []string{
		"SELECT i, COUNT(*) AS c, SUM(f) AS sf FROM t1 GROUP BY i",
		"SELECT DISTINCT i, s, b FROM t1",
		"SELECT i, f FROM t1 ORDER BY f, i",
	}
	for _, q := range queries {
		for _, workers := range []int{1, 4} {
			for _, end := range []string{"drain", "close", "cancel-first", "cancel"} {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				rs, err := ExecStream(catalog, q, StreamOptions{ChunkRows: 64, Parallelism: workers, Ctx: ctx})
				if err != nil {
					t.Fatalf("%q (workers=%d): %v", q, workers, err)
				}
				if end == "cancel-first" {
					cancel()
				} else if _, err := rs.Next(); err != nil {
					t.Fatalf("%q (workers=%d): first chunk: %v", q, workers, err)
				}
				switch end {
				case "drain":
					if _, err := drainChunks(rs); err != nil {
						t.Fatalf("%q (workers=%d): drain: %v", q, workers, err)
					}
				case "close":
					rs.Close()
				case "cancel", "cancel-first":
					cancel()
					if _, err := drainChunks(rs); err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("%q (workers=%d, %s): error = %v, want context.Canceled", q, workers, end, err)
					}
				}
				leaktest.Settle(t, base)
				cancel()
			}
		}
	}
}

func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "dcspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if _, err := os.Stat(m); err == nil {
			t.Fatalf("leaked spill file %s", m)
		}
	}
}

// TestIntKeyHashMatchesEncoded pins the invariant the columnar int-key fast
// path rests on: hash32int(v) must equal hash32 of the byte-encoded key, and
// intGroupKey must invert the encoding — otherwise batches that took
// different key representations (a chunk with nulls falls back to bytes)
// would partition the same group to different reducers.
func TestIntKeyHashMatchesEncoded(t *testing.T) {
	vals := []int64{0, 1, -1, 13, -13, 1 << 31, -(1 << 31), 1<<63 - 1, -(1 << 62), 424242}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Int63()-rng.Int63())
	}
	for _, v := range vals {
		enc := appendKeyValue(nil, dataset.Int(v))
		if got, want := hash32int(v), hash32(enc); got != want {
			t.Fatalf("hash32int(%d) = %#x, hash32(encoded) = %#x", v, got, want)
		}
		k, ok := intGroupKey(enc)
		if !ok || k != v {
			t.Fatalf("intGroupKey(encode(%d)) = %d, %v", v, k, ok)
		}
	}
	if _, ok := intGroupKey(appendKeyValue(nil, dataset.Null)); ok {
		t.Fatal("intGroupKey accepted a null key")
	}
	if _, ok := intGroupKey(appendKeyValue(nil, dataset.Float(1))); ok {
		t.Fatal("intGroupKey accepted a float key")
	}
}

// TestParallelGroupByMixedKeyBatches groups on an int column whose nulls are
// confined to a middle slice of rows: with small chunks, some batches take
// the columnar int-key fast path and others fall back to byte-encoded keys
// within the same stream. Every chunk must still match the serial engine,
// at several worker counts, with and without a spill-forcing budget.
func TestParallelGroupByMixedKeyBatches(t *testing.T) {
	const n = 3000
	ids := make([]int64, n)
	nulls := make([]bool, n)
	vs := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i % 97)
		nulls[i] = i >= 1100 && i < 1250 // only some chunks see a null key
		vs[i] = float64(i) / 8
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"mixed": dataset.MustNewTable("mixed",
			dataset.IntColumn("id", ids, nulls),
			dataset.FloatColumn("v", vs, nil),
		),
	})
	const query = "SELECT id, SUM(v) AS sv, COUNT(*) AS c FROM mixed GROUP BY id ORDER BY id"
	for _, workers := range []int{2, 4} {
		runParallelVsSerial(t, catalog, query, StreamOptions{ChunkRows: 256}, workers)
		runParallelVsSerial(t, catalog, query, StreamOptions{
			ChunkRows: 256, MaxBufferedRows: 40, SpillDir: t.TempDir(),
		}, workers)
	}
}
