package sqlengine

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// This file implements morsel-driven streaming execution: statements run as
// operator pipelines over bounded column-chunk batches ("morsels") instead of
// whole materialized tables. Streaming operators (scan, filter, projection,
// OFFSET/LIMIT) hold O(ChunkRows) state; pipeline breakers (ORDER BY sorted
// runs, group states, join build sides, DISTINCT seen-sets) buffer rows under
// an explicit budget. A sort or group-by partition that overflows the budget
// spills runs to disk and merges them streaming (spill.go); operators that
// cannot spill fail loudly with a typed BudgetError. Every operator runs
// behind the morsel dispatcher (stream_parallel.go), which fans chunks out to
// worker-pinned pipelines with order-preserving reassembly; the worker count
// is a parameter, and at one worker the dispatcher runs inline, so every
// Parallelism emits the same chunk sequence. Statements the pipeline cannot
// stream exactly fall back to whole-statement materialized execution
// re-chunked on the way out, so ExecStream always produces the same rows, in
// the same order, as the row-at-a-time reference path (exec.go) — the
// differential harness pins both.

// DefaultChunkRows is the morsel size when StreamOptions.ChunkRows is unset.
const DefaultChunkRows = 1024

// StreamOptions tunes streaming execution.
type StreamOptions struct {
	Options

	// ChunkRows bounds the rows per emitted chunk (default DefaultChunkRows).
	ChunkRows int

	// MaxBufferedRows caps the rows pipeline-breaking operators may buffer
	// (sorted runs, group states, join build sides, DISTINCT sets). Zero
	// means unlimited. Overflowing operators spill sorted/partitioned runs
	// to disk when they can (ORDER BY, group-by) and abort the stream with
	// a *BudgetError when they cannot (join build sides, DISTINCT sets) or
	// when DisableSpill is set.
	MaxBufferedRows int

	// Parallelism is the number of pipeline workers morsels are fanned out
	// to: 0 or 1 means one worker, a negative value means GOMAXPROCS. Every
	// worker count runs the same operators and emits the same chunk
	// sequence; the row executor, not any worker count, is the oracle the
	// differential tests pin against. Shapes that stop early (a LIMIT with
	// no pipeline breaker, DISTINCT+LIMIT) always run on one worker.
	Parallelism int

	// SpillDir is where spill runs are written (default: the OS temp dir).
	SpillDir string

	// DisableSpill turns the disk spill layer off, restoring the strict
	// budget behavior: overflow is always a *BudgetError.
	DisableSpill bool

	// Ctx, when set, cancels parallel workers and releases spill files if
	// it is done before the stream is drained.
	Ctx context.Context

	// ForceFallbackAfterChunks, when positive, switches to the materialized
	// fallback after that many chunks have been emitted. It exists so tests
	// can pin that a mid-stream fallback continues the row sequence exactly.
	ForceFallbackAfterChunks int
}

func (o StreamOptions) chunkRows() int {
	if o.ChunkRows > 0 {
		return o.ChunkRows
	}
	return DefaultChunkRows
}

// workers resolves Parallelism: 0 → 1, negative → GOMAXPROCS.
func (o StreamOptions) workers() int {
	switch {
	case o.Parallelism == 0:
		return 1
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return o.Parallelism
	}
}

// BudgetError reports a pipeline-breaking operator exceeding the configured
// memory budget. It is loud and typed so callers can distinguish "query needs
// more memory than allowed" from semantic errors.
type BudgetError struct {
	Op       string // operator that overflowed: order-by, group-by, join-build, …
	Buffered int    // rows buffered across live operators when the budget broke
	Budget   int    // configured MaxBufferedRows
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sql: streaming %s exceeded the memory budget: %d buffered rows > %d allowed",
		e.Op, e.Buffered, e.Budget)
}

// streamExec carries per-stream execution state: the shared executor (for the
// helpers both paths use), the pipeline's worker count, the buffered-row
// accounting across operators (one budget shared by every operator and
// partition, charged under a mutex so concurrent reducers account
// correctly), spill-file tracking, and the stop functions that tear down
// parallel workers on close or cancellation.
type streamExec struct {
	ex      *executor
	opts    StreamOptions
	workers int // fixed by buildPipeline before any operator is built

	mu       sync.Mutex
	buffered map[string]int
	curTotal int
	peak     int

	spillMu    sync.Mutex
	spillFiles map[string]bool
	spill      SpillStats

	stopMu  sync.Mutex
	stopFns []func(error)
	closed  bool
	stopErr error
	doneCh  chan struct{}
}

// buffer records that operator op now holds rows buffered rows, enforcing the
// budget over the sum across live operators and tracking the high-water mark.
func (se *streamExec) buffer(op string, rows int) error {
	se.mu.Lock()
	defer se.mu.Unlock()
	prev := se.buffered[op]
	se.curTotal += rows - prev
	se.buffered[op] = rows
	if se.curTotal > se.peak {
		se.peak = se.curTotal
	}
	// Only a growing charge can overflow: an operator releasing memory
	// (rows <= prev) must never be blamed for pressure other live
	// operators are holding, or a spill that just freed its buffers would
	// fail with a budget error attributed to the wrong operator.
	if rows > prev && se.opts.MaxBufferedRows > 0 && se.curTotal > se.opts.MaxBufferedRows {
		return &BudgetError{Op: op, Buffered: se.curTotal, Budget: se.opts.MaxBufferedRows}
	}
	return nil
}

// tryBuffer is buffer's non-committing probe: it records the charge and
// returns true when op holding rows fits the budget, and changes nothing
// (returning false) when it would overflow — the spill trigger.
func (se *streamExec) tryBuffer(op string, rows int) bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	newTotal := se.curTotal + rows - se.buffered[op]
	if se.opts.MaxBufferedRows > 0 && newTotal > se.opts.MaxBufferedRows {
		return false
	}
	se.curTotal = newTotal
	se.buffered[op] = rows
	if se.curTotal > se.peak {
		se.peak = se.curTotal
	}
	return true
}

// forceBuffer commits a charge even past the budget: a deliberate, bounded
// overrun (one group state per partition) that keeps spill passes live when
// sibling operators transiently hold the entire budget.
func (se *streamExec) forceBuffer(op string, rows int) {
	se.mu.Lock()
	se.curTotal += rows - se.buffered[op]
	se.buffered[op] = rows
	if se.curTotal > se.peak {
		se.peak = se.curTotal
	}
	se.mu.Unlock()
}

// spillEnabled reports whether budget overflow may go to disk instead of
// failing. With no budget there is never an overflow to spill.
func (se *streamExec) spillEnabled() bool {
	return se.opts.MaxBufferedRows > 0 && !se.opts.DisableSpill
}

// onStop registers a teardown hook (pipe stop, sorter disposal) run when the
// stream closes, fails, finishes, or its context is cancelled. If the stream
// is already closed the hook runs immediately.
func (se *streamExec) onStop(fn func(error)) {
	se.stopMu.Lock()
	if se.closed {
		cause := se.stopErr
		se.stopMu.Unlock()
		fn(cause)
		return
	}
	se.stopFns = append(se.stopFns, fn)
	se.stopMu.Unlock()
}

// stopAll tears the stream's workers down and deletes any remaining spill
// files. Idempotent and safe to call from the context watcher concurrently
// with the consumer.
func (se *streamExec) stopAll(cause error) {
	se.stopMu.Lock()
	if se.closed {
		se.stopMu.Unlock()
		return
	}
	se.closed = true
	se.stopErr = cause
	fns := se.stopFns
	se.stopFns = nil
	close(se.doneCh)
	se.stopMu.Unlock()
	for _, fn := range fns {
		fn(cause)
	}
	se.spillMu.Lock()
	for path := range se.spillFiles {
		os.Remove(path)
	}
	se.spillFiles = map[string]bool{}
	se.spillMu.Unlock()
}

func (se *streamExec) trackSpillFile(path string) {
	se.spillMu.Lock()
	se.spillFiles[path] = true
	se.spillMu.Unlock()
}

func (se *streamExec) removeSpillFile(path string) {
	se.spillMu.Lock()
	if se.spillFiles[path] {
		delete(se.spillFiles, path)
		os.Remove(path)
	}
	se.spillMu.Unlock()
}

func (se *streamExec) noteSpillRun(rows int, bytes int64) {
	se.spillMu.Lock()
	se.spill.Runs++
	se.spill.SpilledRows += rows
	se.spill.SpilledBytes += bytes
	se.spillMu.Unlock()
}

func (se *streamExec) spillStats() SpillStats {
	se.spillMu.Lock()
	defer se.spillMu.Unlock()
	return se.spill
}

// RowStream yields a statement's result as a sequence of bounded chunks.
type RowStream struct {
	catalog Catalog
	stmt    *SelectStmt
	opts    StreamOptions
	se      *streamExec

	pull         func() (*dataset.Table, error)
	needFallback bool // statement is unstreamable; materialize lazily on first Next
	fellBack     bool
	done         bool
	err          error
	rows         int
	chunks       int
}

// Next returns the next chunk, or (nil, nil) when the stream is exhausted.
// After an error the stream is dead and Next keeps returning the same error.
func (rs *RowStream) Next() (*dataset.Table, error) {
	if rs.done || rs.err != nil {
		return nil, rs.err
	}
	if rs.needFallback {
		rs.needFallback = false
		if err := rs.startFallback(0); err != nil {
			return nil, rs.fail(err)
		}
	}
	if rs.opts.ForceFallbackAfterChunks > 0 && !rs.fellBack && rs.chunks >= rs.opts.ForceFallbackAfterChunks {
		if err := rs.startFallback(rs.rows); err != nil {
			return nil, rs.fail(err)
		}
	}
	t, err := rs.pull()
	if err != nil {
		return nil, rs.fail(err)
	}
	if t == nil {
		rs.done = true
		rs.se.stopAll(nil)
		return nil, nil
	}
	rs.chunks++
	rs.rows += t.NumRows()
	return t, nil
}

func (rs *RowStream) fail(err error) error {
	rs.err = err
	rs.se.stopAll(nil)
	return err
}

// Close releases the stream's resources — parallel workers and spill files —
// without draining it. Required when abandoning a partially-consumed
// parallel stream; harmless (and optional) after a full drain or an error.
func (rs *RowStream) Close() {
	rs.done = true
	if rs.se != nil {
		rs.se.stopAll(nil)
	}
}

// startFallback materializes the whole statement through the standard path
// and re-chunks it, skipping rows the streaming pipeline already emitted.
// Both paths produce rows in identical order, so the spliced sequence is the
// same table the reference path returns.
func (rs *RowStream) startFallback(skipRows int) error {
	// The streaming pipeline is abandoned: stop its workers and drop its
	// spill files before materializing.
	rs.se.stopAll(nil)
	out, err := ExecStmtOptions(rs.catalog, rs.stmt, rs.opts.Options)
	if err != nil {
		return err
	}
	rs.fellBack = true
	if skipRows > 0 {
		out = out.Window(skipRows, out.NumRows())
		if out.NumRows() == 0 {
			rs.pull = func() (*dataset.Table, error) { return nil, nil }
			return nil
		}
	}
	rs.pull = rechunkTable(out, rs.opts.chunkRows())
	return nil
}

// FellBack reports whether the stream switched to materialized execution.
func (rs *RowStream) FellBack() bool { return rs.fellBack }

// RowsEmitted returns the number of rows produced so far.
func (rs *RowStream) RowsEmitted() int { return rs.rows }

// PeakBufferedRows returns the high-water mark of rows buffered by
// pipeline-breaking operators — the stream's working-set gauge.
func (rs *RowStream) PeakBufferedRows() int {
	if rs.se == nil {
		return 0
	}
	rs.se.mu.Lock()
	defer rs.se.mu.Unlock()
	return rs.se.peak
}

// SpillStats returns the stream's disk-spill counters so far.
func (rs *RowStream) SpillStats() SpillStats {
	if rs.se == nil {
		return SpillStats{}
	}
	return rs.se.spillStats()
}

// Workers reports the worker count the stream's pipeline runs on: the
// resolved Parallelism, or 1 for early-stopping shapes and for statements
// that fell back to materialized execution before streaming.
func (rs *RowStream) Workers() int { return rs.se.workers }

// ReadAll drains the stream into one table. Column types are re-inferred
// across all chunks the way the reference projection does.
func (rs *RowStream) ReadAll() (*dataset.Table, error) {
	return rs.Drain(nil)
}

// Drain consumes the stream into one table, handing each chunk to sink (may
// be nil) before accumulating it — the hook the DAG executor uses to forward
// chunks to a network client while still materializing the full result for
// the session context and the sub-DAG cache.
func (rs *RowStream) Drain(sink func(*dataset.Table) error) (*dataset.Table, error) {
	var first *dataset.Table
	var builders []*valueColumnBuilder
	nchunks := 0
	for {
		t, err := rs.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			break
		}
		if sink != nil {
			if err := sink(t); err != nil {
				return nil, err
			}
		}
		nchunks++
		if first == nil {
			first = t
			builders = make([]*valueColumnBuilder, t.NumCols())
			for i, name := range t.ColumnNames() {
				builders[i] = newValueColumnBuilder(name)
			}
		}
		if t.NumCols() != len(builders) {
			return nil, fmt.Errorf("sql: stream chunk schema changed mid-stream (%d columns, want %d)", t.NumCols(), len(builders))
		}
		for ci, c := range t.Columns() {
			for r := 0; r < c.Len(); r++ {
				builders[ci].append(c.Value(r))
			}
		}
	}
	if first == nil {
		return nil, fmt.Errorf("sql: stream produced no chunks")
	}
	if nchunks == 1 {
		return first, nil // single chunk: keep its exact column types
	}
	return buildTable("result", builders)
}

// ExecStream parses and streams a SQL query against the catalog.
func ExecStream(catalog Catalog, query string, opts StreamOptions) (*RowStream, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecStreamStmt(catalog, stmt, opts)
}

// ExecStreamStmt streams a parsed statement. Statement shapes the morsel
// pipeline cannot reproduce exactly (SELECT without FROM, DISTINCT over
// computed projections, DISTINCT/MEDIAN/STDDEV aggregates) fall back to
// materialized execution re-chunked on the way out; FellBack reports that.
func ExecStreamStmt(catalog Catalog, stmt *SelectStmt, opts StreamOptions) (*RowStream, error) {
	se := &streamExec{
		ex:         &executor{catalog: catalog, vec: !opts.DisableVectorized},
		opts:       opts,
		buffered:   map[string]int{},
		spillFiles: map[string]bool{},
		doneCh:     make(chan struct{}),
	}
	if opts.Ctx != nil {
		go func() {
			select {
			case <-opts.Ctx.Done():
				se.stopAll(opts.Ctx.Err())
			case <-se.doneCh:
			}
		}()
	}
	rs := &RowStream{catalog: catalog, stmt: stmt, opts: opts, se: se}
	pull, ok, err := se.buildPipeline(stmt)
	if err != nil {
		return nil, err
	}
	if !ok {
		se.workers = 1 // the materialized fallback runs on the consumer's goroutine
		rs.needFallback = true
		rs.fellBack = true
		return rs, nil
	}
	rs.pull = pull
	return rs, nil
}

// relChunks produces a FROM-clause relation as a sequence of bounded chunks.
// Implementations never emit zero-row chunks; schema is available up front.
type relChunks interface {
	schema() *rel        // zero-row relation carrying columns and qualifiers
	next() (*rel, error) // next chunk; (nil, nil) marks exhaustion
}

func windowRel(r *rel, from, to int) *rel {
	out := &rel{cols: make([]*dataset.Column, len(r.cols)), quals: r.quals}
	for i, c := range r.cols {
		out.cols[i] = c.Window(from, to)
	}
	return out
}

// scanChunks yields zero-copy windows over a materialized relation.
type scanChunks struct {
	src   *rel
	off   int
	chunk int
}

func (s *scanChunks) schema() *rel { return windowRel(s.src, 0, 0) }

func (s *scanChunks) next() (*rel, error) {
	n := s.src.numRows()
	if s.off >= n {
		return nil, nil
	}
	end := min(s.off+s.chunk, n)
	out := windowRel(s.src, s.off, end)
	s.off = end
	return out, nil
}

// rechunkRel splits oversized chunks (join fan-out) into bounded windows.
type rechunkRel struct {
	in    relChunks
	chunk int
	cur   *rel
	off   int
}

func (r *rechunkRel) schema() *rel { return r.in.schema() }

func (r *rechunkRel) next() (*rel, error) {
	for {
		if r.cur != nil {
			n := r.cur.numRows()
			if r.off < n {
				end := min(r.off+r.chunk, n)
				out := windowRel(r.cur, r.off, end)
				r.off = end
				return out, nil
			}
			r.cur = nil
		}
		c, err := r.in.next()
		if err != nil || c == nil {
			return nil, err
		}
		if c.numRows() <= r.chunk {
			return c, nil
		}
		r.cur, r.off = c, 0
	}
}

// filterChunks applies WHERE per chunk, with the vectorized kernel when it
// compiles and the boxed row loop otherwise, honoring the LIMIT push-down
// budget across chunks exactly as the materialized scan does.
type filterChunks struct {
	se     *streamExec
	in     relChunks
	where  expr.Expr
	budget int // total surviving rows to keep
	kept   int
}

func (f *filterChunks) schema() *rel { return f.in.schema() }

func (f *filterChunks) next() (*rel, error) {
	for {
		if f.kept >= f.budget {
			return nil, nil
		}
		c, err := f.in.next()
		if err != nil || c == nil {
			return nil, err
		}
		rem := f.budget - f.kept
		keep, vectorized, err := f.se.ex.vecFilter(f.where, c, rem)
		if err != nil {
			return nil, err
		}
		if !vectorized {
			keep = make([]int, 0, c.numRows())
			for i := 0; i < c.numRows(); i++ {
				ok, err := expr.EvalBool(f.where, rowEnv{c, i})
				if err != nil {
					return nil, err
				}
				if ok {
					keep = append(keep, i)
					if len(keep) >= rem {
						break
					}
				}
			}
		}
		if len(keep) == 0 {
			continue
		}
		f.kept += len(keep)
		return takeRel(c, keep), nil
	}
}

// truncChunks caps total rows flowing through (LIMIT push-down with no WHERE).
type truncChunks struct {
	in     relChunks
	budget int
	passed int
}

func (t *truncChunks) schema() *rel { return t.in.schema() }

func (t *truncChunks) next() (*rel, error) {
	if t.passed >= t.budget {
		return nil, nil
	}
	c, err := t.in.next()
	if err != nil || c == nil {
		return nil, err
	}
	if rem := t.budget - t.passed; c.numRows() > rem {
		c = windowRel(c, 0, rem)
	}
	t.passed += c.numRows()
	return c, nil
}

// sourceChunks builds the chunk source for a FROM-clause relation. Base
// tables scan as zero-copy windows; subqueries materialize through the
// standard executor and re-chunk (their results equal the reference by the
// existing differential harness); joins stream their left side.
func (se *streamExec) sourceChunks(ref TableRef) (relChunks, error) {
	switch r := ref.(type) {
	case *BaseTable:
		t, err := se.ex.catalog.Table(r.Name)
		if err != nil {
			return nil, err
		}
		return &scanChunks{src: tableToRel(t, r.Alias), chunk: se.opts.chunkRows()}, nil
	case *Subquery:
		t, err := se.ex.execSelect(r.Stmt)
		if err != nil {
			return nil, err
		}
		alias := r.Alias
		if alias == "" {
			alias = "subquery"
		}
		return &scanChunks{src: tableToRel(t, alias), chunk: se.opts.chunkRows()}, nil
	case *Join:
		jc, err := se.newJoinChunks(r)
		if err != nil {
			return nil, err
		}
		return &rechunkRel{in: jc, chunk: se.opts.chunkRows()}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported table reference %T", ref)
	}
}

// joinChunks streams a join: the right side is fully built (hash table for
// equi-conditions, plain materialization otherwise) and charged against the
// memory budget; left chunks probe it through the morsel dispatcher, which
// preserves chunk order, so parallel probing emits exactly the serial
// sequence. The build side cannot spill — overflowing it is a BudgetError
// either way. LEFT JOIN unmatched-row tracking is side-effecting, so the
// workers only report per-row match flags and the consumer folds them into
// the unmatched buffer serially, in chunk order, exactly like the serial
// engine.
type joinChunks struct {
	se                  *streamExec
	j                   *Join
	left                relChunks
	right               *rel
	combined            *rel // schema-level; used for qualified-name resolution only
	leftKeys, rightKeys []int
	build               map[string][]int
	pipe                *parallelPipe[*rel, *joinProbe]
	unmatched           *rel // buffered unmatched left rows (LEFT JOIN)
	extended            bool
	done                bool
}

// joinProbe is one probed left chunk: the matched output rows plus the
// per-left-row match flags the consumer needs for LEFT JOIN bookkeeping.
type joinProbe struct {
	c       *rel // the left chunk that was probed
	out     *rel // combined matched rows (nil when none)
	matched []bool
}

func (se *streamExec) newJoinChunks(j *Join) (*joinChunks, error) {
	left, err := se.sourceChunks(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := se.ex.execRef(j.Right)
	if err != nil {
		return nil, err
	}
	if err := se.buffer("join-build", right.numRows()); err != nil {
		return nil, err
	}
	ls := left.schema()
	jc := &joinChunks{se: se, j: j, left: left, right: right}
	jc.combined = &rel{
		cols:  append(append([]*dataset.Column{}, ls.cols...), right.cols...),
		quals: append(append([]string{}, ls.quals...), right.quals...),
	}
	jc.leftKeys, jc.rightKeys = equiJoinKeys(j.On, ls, right)
	if len(jc.leftKeys) > 0 {
		jc.buildHashTable()
	}
	if j.Kind == LeftJoin {
		cols := make([]*dataset.Column, len(ls.cols))
		for i, c := range ls.cols {
			cols[i] = dataset.NewColumn(c.Name(), c.Type())
		}
		jc.unmatched = &rel{cols: cols, quals: ls.quals}
	}
	jc.pipe = newParallelPipe(se.workers, 2*se.workers,
		func() (*rel, bool, error) {
			c, err := jc.left.next()
			return c, c != nil, err
		},
		func(c *rel, _ int) (*joinProbe, error) { return jc.probe(c) },
	)
	se.onStop(jc.pipe.stop)
	return jc, nil
}

// buildHashTable builds the equi-join hash map, range-partitioned across the
// pipeline workers: each worker maps a contiguous slice of right rows, and
// the partials merge in range order, so every key's row list stays in
// ascending right-row order — the order the serial build produces.
func (jc *joinChunks) buildHashTable() {
	n := jc.right.numRows()
	w := jc.se.workers
	if w > n {
		w = 1
	}
	buildRange := func(lo, hi int) map[string][]int {
		m := make(map[string][]int, hi-lo)
		for ri := lo; ri < hi; ri++ {
			k := joinKey(jc.right, jc.rightKeys, ri)
			m[k] = append(m[k], ri)
		}
		return m
	}
	if w <= 1 {
		jc.build = buildRange(0, n)
		return
	}
	parts := make([]map[string][]int, w)
	var wg sync.WaitGroup
	for p := 0; p < w; p++ {
		lo, hi := p*n/w, (p+1)*n/w
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			parts[p] = buildRange(lo, hi)
		}(p, lo, hi)
	}
	wg.Wait()
	jc.build = parts[0]
	for _, part := range parts[1:] {
		for k, ris := range part {
			jc.build[k] = append(jc.build[k], ris...)
		}
	}
}

func (jc *joinChunks) schema() *rel { return windowRel(jc.combined, 0, 0) }

func (jc *joinChunks) next() (*rel, error) {
	for {
		if jc.done {
			return nil, nil
		}
		if jc.extended {
			jc.done = true
			if jc.unmatched == nil || jc.unmatched.numRows() == 0 {
				return nil, nil
			}
			return jc.nullExtension(), nil
		}
		p, ok, err := jc.pipe.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			jc.extended = true
			continue
		}
		if jc.unmatched != nil {
			appended := false
			for li, m := range p.matched {
				if m {
					continue
				}
				for ci, col := range jc.unmatched.cols {
					col.Append(p.c.cols[ci].Value(li))
				}
				appended = true
			}
			if appended {
				if err := jc.se.buffer("join-unmatched", jc.unmatched.numRows()); err != nil {
					return nil, err
				}
			}
		}
		if p.out == nil || p.out.numRows() == 0 {
			continue
		}
		return p.out, nil
	}
}

// probe matches one left chunk against the build side. It is pure — shared
// state is read-only — so the dispatcher can run it on any worker.
func (jc *joinChunks) probe(c *rel) (*joinProbe, error) {
	var leftIdx, rightIdx []int
	matched := make([]bool, c.numRows())
	residual := func(li, ri int) (bool, error) {
		if jc.j.On == nil {
			return true, nil
		}
		return expr.EvalBool(jc.j.On, joinEnv{left: c, leftRow: li, right: jc.right, rightRow: ri, combined: jc.combined})
	}
	if jc.build != nil {
		for li := 0; li < c.numRows(); li++ {
			for _, ri := range jc.build[joinKey(c, jc.leftKeys, li)] {
				ok, err := residual(li, ri)
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					matched[li] = true
				}
			}
		}
	} else {
		for li := 0; li < c.numRows(); li++ {
			for ri := 0; ri < jc.right.numRows(); ri++ {
				ok, err := residual(li, ri)
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					matched[li] = true
				}
			}
		}
	}
	p := &joinProbe{c: c, matched: matched}
	if len(leftIdx) == 0 {
		return p, nil
	}
	out := &rel{cols: make([]*dataset.Column, len(jc.combined.cols)), quals: jc.combined.quals}
	nLeft := len(c.cols)
	for ci := range jc.combined.cols {
		if ci < nLeft {
			out.cols[ci] = c.cols[ci].Take(leftIdx)
		} else {
			out.cols[ci] = jc.right.cols[ci-nLeft].Take(rightIdx)
		}
	}
	p.out = out
	return p, nil
}

// nullExtension emits the buffered unmatched left rows with null right sides.
func (jc *joinChunks) nullExtension() *rel {
	n := jc.unmatched.numRows()
	nulls := make([]int, n)
	for i := range nulls {
		nulls[i] = -1
	}
	out := &rel{cols: make([]*dataset.Column, len(jc.combined.cols)), quals: jc.combined.quals}
	nLeft := len(jc.unmatched.cols)
	for ci := range jc.combined.cols {
		if ci < nLeft {
			out.cols[ci] = jc.unmatched.cols[ci]
		} else {
			out.cols[ci] = jc.right.cols[ci-nLeft].Take(nulls)
		}
	}
	return out
}

// buildPipeline assembles the streaming operator pipeline for a statement.
// ok=false means the statement must fall back to materialized execution.
func (se *streamExec) buildPipeline(stmt *SelectStmt) (func() (*dataset.Table, error), bool, error) {
	if stmt.From == nil {
		return nil, false, nil // SELECT without FROM evaluates items once, materialized
	}
	aggs := se.ex.collectAllAggs(stmt)
	grouped := len(stmt.GroupBy) > 0 || len(aggs) > 0
	if grouped {
		for _, a := range aggs {
			if a.Distinct {
				return nil, false, nil
			}
			switch a.Name {
			case "COUNT", "SUM", "AVG", "MIN", "MAX":
			default: // MEDIAN, STDDEV need the full value set per group
				return nil, false, nil
			}
		}
	}

	// A shape that stops early — LIMIT with no pipeline breaker, or
	// DISTINCT+LIMIT — runs on one worker, so no morsel is evaluated ahead
	// of the consumer: the stream stops where the reference path stops.
	earlyStop := !grouped && len(stmt.OrderBy) == 0 && stmt.Limit >= 0
	se.workers = 1
	if !earlyStop {
		se.workers = se.opts.workers()
	}

	src, err := se.sourceChunks(stmt.From)
	if err != nil {
		return nil, false, err
	}
	schema := src.schema()

	names, exprs := se.ex.expandItems(stmt.Items, schema)
	plain := true
	plainIdx := make([]int, len(exprs))
	for i, ex := range exprs {
		c, ok := ex.(*expr.Col)
		if !ok {
			plain = false
			break
		}
		idx, err := schema.lookup(c.Name)
		if err != nil {
			plain = false
			break
		}
		plainIdx[i] = idx
	}
	// Streaming DISTINCT dedups on rendered row keys, which include column
	// types; only plain-column projections have chunk-stable output types
	// matching what the materialized path dedups on.
	if stmt.Distinct && !grouped && !plain {
		return nil, false, nil
	}

	// WHERE runs per morsel inside the operators. Under a LIMIT push-down
	// budget it runs in filterChunks instead, which stops evaluating rows
	// mid-chunk once the budget is met, exactly as the materialized scan does.
	where := stmt.Where
	var chunks relChunks = src
	if earlyStop && !stmt.Distinct {
		rowBudget := stmt.Offset + stmt.Limit
		if where != nil {
			chunks = &filterChunks{se: se, in: src, where: where, budget: rowBudget}
			where = nil
		} else {
			chunks = &truncChunks{in: src, budget: rowBudget}
		}
	}

	var pull func() (*dataset.Table, error)
	switch {
	case grouped:
		pull = se.partitionedGroupedPull(stmt, chunks, where, aggs, schema)
	case len(stmt.OrderBy) > 0:
		pull = se.orderedPull(stmt, chunks, where, names, exprs, plain, plainIdx, schema)
	default:
		pull = se.parallelProjectPull(chunks, where, names, exprs, plain, plainIdx)
	}
	if !grouped {
		if stmt.Distinct {
			pull = se.parallelDistinctPull(pull)
		}
		if stmt.Offset > 0 || stmt.Limit >= 0 {
			pull = offsetLimitPull(pull, stmt.Offset, stmt.Limit)
		}
	}
	empty := func() (*dataset.Table, error) {
		return se.projectChunk(windowRel(schema, 0, 0), names, exprs, plain, plainIdx)
	}
	return ensureOneChunk(pull, empty), true, nil
}

// projectChunk evaluates the select list over one chunk: zero-copy column
// aliasing for plain references, compiled kernels where they apply, and the
// boxed row loop otherwise. Values are identical across all three; only the
// inferred column types can differ, which result comparison tolerates.
func (se *streamExec) projectChunk(c *rel, names []string, exprs []expr.Expr, plain bool, plainIdx []int) (*dataset.Table, error) {
	if plain {
		cols := make([]*dataset.Column, len(plainIdx))
		for i, idx := range plainIdx {
			cols[i] = c.cols[idx].Rename(names[i])
		}
		return assembleTable("result", cols)
	}
	if se.ex.vec {
		binder := relBinder{c}
		cols := make([]*dataset.Column, len(exprs))
		compiled := true
		for i, ex := range exprs {
			k, ok := expr.Compile(ex, binder, c.numRows())
			if !ok {
				compiled = false
				break
			}
			v, err := k()
			if err != nil {
				return nil, err
			}
			cols[i] = v.Column(names[i])
		}
		if compiled {
			return assembleTable("result", cols)
		}
	}
	builders := make([]*valueColumnBuilder, len(exprs))
	for i, name := range names {
		builders[i] = newValueColumnBuilder(name)
	}
	for i := 0; i < c.numRows(); i++ {
		env := rowEnv{c, i}
		for ci, ex := range exprs {
			v, err := ex.Eval(env)
			if err != nil {
				return nil, err
			}
			builders[ci].append(v)
		}
	}
	return buildTable("result", builders)
}

// filterRel applies a WHERE predicate to one chunk inside a pipeline worker
// (no LIMIT budget — budgeted scans filter in filterChunks). Returns nil
// when no row survives.
func (se *streamExec) filterRel(where expr.Expr, c *rel) (*rel, error) {
	if where == nil {
		return c, nil
	}
	keep, vectorized, err := se.ex.vecFilter(where, c, -1)
	if err != nil {
		return nil, err
	}
	if !vectorized {
		keep = make([]int, 0, c.numRows())
		for i := 0; i < c.numRows(); i++ {
			ok, err := expr.EvalBool(where, rowEnv{c, i})
			if err != nil {
				return nil, err
			}
			if ok {
				keep = append(keep, i)
			}
		}
	}
	if len(keep) == 0 {
		return nil, nil
	}
	if len(keep) == c.numRows() {
		return c, nil
	}
	return takeRel(c, keep), nil
}

// parallelProjectPull fans source chunks out to the pipeline workers, each
// filtering and projecting its own morsels; reassembly preserves chunk
// order, so the output sequence is the same at every worker count.
func (se *streamExec) parallelProjectPull(chunks relChunks, where expr.Expr, names []string, exprs []expr.Expr, plain bool, plainIdx []int) func() (*dataset.Table, error) {
	pipe := newParallelPipe(se.workers, 2*se.workers,
		func() (*rel, bool, error) {
			c, err := chunks.next()
			return c, c != nil, err
		},
		func(c *rel, _ int) (*dataset.Table, error) {
			fc, err := se.filterRel(where, c)
			if err != nil || fc == nil {
				return nil, err
			}
			return se.projectChunk(fc, names, exprs, plain, plainIdx)
		},
	)
	se.onStop(pipe.stop)
	return func() (*dataset.Table, error) {
		for {
			t, ok, err := pipe.next()
			if err != nil || !ok {
				return nil, err
			}
			if t == nil || t.NumRows() == 0 {
				continue // fully filtered morsel
			}
			return t, nil
		}
	}
}

// orderedRun is one chunk's projected rows and sort keys, built by a
// pipeline worker.
type orderedRun struct {
	vals  [][]dataset.Value // projected rows in input order
	keys  [][]dataset.Value
	order []int // stable sort of row indexes by keys, computed in the worker
}

// orderedPull implements chunked ORDER BY as a sorted-run merge: each input
// chunk becomes a run sorted stably by its keys (built in parallel when the
// dispatcher has workers); exhausted input is merged k-way with ties broken
// by run sequence, which reproduces a global stable sort. Buffered rows are
// charged against the budget; overflow merges the buffered runs into an
// on-disk run (a contiguous sequence range, so the final disk+memory merge
// is still the exact stable sort) unless spilling is disabled.
func (se *streamExec) orderedPull(stmt *SelectStmt, chunks relChunks, where expr.Expr, names []string, exprs []expr.Expr, plain bool, plainIdx []int, schema *rel) func() (*dataset.Table, error) {
	var types []dataset.Type
	if plain {
		types = make([]dataset.Type, len(plainIdx))
		for i, idx := range plainIdx {
			types[i] = schema.cols[idx].Type()
		}
	}
	buildRun := func(c *rel, _ int) (*orderedRun, error) {
		fc, err := se.filterRel(where, c)
		if err != nil {
			return nil, err
		}
		if fc == nil {
			return &orderedRun{}, nil
		}
		n := fc.numRows()
		r := &orderedRun{vals: make([][]dataset.Value, 0, n), keys: make([][]dataset.Value, 0, n)}
		// One output env reused across the chunk's rows: every row writes
		// the same name set, so per-row maps would only add allocations.
		outRow := make(expr.MapEnv, len(exprs))
		for i := 0; i < n; i++ {
			env := rowEnv{fc, i}
			vals := make([]dataset.Value, len(exprs))
			for ci, ex := range exprs {
				v, err := ex.Eval(env)
				if err != nil {
					return nil, err
				}
				vals[ci] = v
				outRow[names[ci]] = v
			}
			keys := make([]dataset.Value, len(stmt.OrderBy))
			orderEnv := chainEnv{outRow, env}
			for ki, o := range stmt.OrderBy {
				v, err := o.Expr.Eval(orderEnv)
				if err != nil {
					return nil, err
				}
				keys[ki] = v
			}
			r.vals = append(r.vals, vals)
			r.keys = append(r.keys, keys)
		}
		r.order = sortIndexes(len(r.vals), stmt.OrderBy, func(row, k int) dataset.Value { return r.keys[row][k] })
		return r, nil
	}
	pipe := newParallelPipe(se.workers, 2*se.workers,
		func() (*rel, bool, error) {
			c, err := chunks.next()
			return c, c != nil, err
		},
		buildRun,
	)
	se.onStop(pipe.stop)
	sorter := newExtSorter(se, "order-by", stmt.OrderBy)
	consumed := false
	var sorted []sortedSource
	consume := func() error {
		seq := 0
		for {
			r, ok, err := pipe.next()
			if err != nil {
				return err
			}
			if !ok {
				sorted = sorter.sources()
				return nil
			}
			if err := sorter.addRun(seq, r.vals, r.keys, r.order); err != nil {
				return err
			}
			seq++
		}
	}
	return func() (*dataset.Table, error) {
		if !consumed {
			consumed = true
			if err := consume(); err != nil {
				return nil, err
			}
		}
		chunkRows := se.opts.chunkRows()
		var rows [][]dataset.Value
		for len(rows) < chunkRows {
			vals, _, ok, err := sorter.mergeStep(sorted)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			rows = append(rows, vals)
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return buildValueChunk(names, types, rows)
	}
}

// buildValueChunk materializes boxed rows into a chunk table, pinning column
// types when the projection is plain (chunk-stable types keep DISTINCT and
// the wire encoding consistent with the materialized path).
func buildValueChunk(names []string, types []dataset.Type, rows [][]dataset.Value) (*dataset.Table, error) {
	if types != nil {
		cols := make([]*dataset.Column, len(names))
		for i, name := range names {
			c := dataset.NewColumn(name, types[i])
			for _, row := range rows {
				c.Append(row[i])
			}
			cols[i] = c
		}
		return assembleTable("result", cols)
	}
	builders := make([]*valueColumnBuilder, len(names))
	for i, name := range names {
		builders[i] = newValueColumnBuilder(name)
	}
	for _, row := range rows {
		for ci := range builders {
			builders[ci].append(row[ci])
		}
	}
	return buildTable("result", builders)
}

// gState is one group's streaming aggregate state, one slot per AggCall.
type gState struct {
	counts  []int64
	sums    []float64
	allInt  []bool
	best    []dataset.Value
	hasBest []bool
}

func newGState(naggs int) *gState {
	g := &gState{
		counts:  make([]int64, naggs),
		sums:    make([]float64, naggs),
		allInt:  make([]bool, naggs),
		best:    make([]dataset.Value, naggs),
		hasBest: make([]bool, naggs),
	}
	for i := range g.allInt {
		g.allInt[i] = true
	}
	return g
}

// distinctBatch is one chunk with its row keys rendered (and sharded) by a
// pipeline worker.
type distinctBatch struct {
	t     *dataset.Table
	keys  []string
	shard []uint32
}

// parallelDistinctPull shards the DISTINCT seen-set by key hash, one shard
// per worker: pipeline workers render row keys per morsel, and per-chunk the
// shards dedup their own key subspace concurrently into disjoint slots of a
// keep bitmap. A key always lands in the same shard and chunks are processed
// in input order, so every worker count keeps the first occurrence of each
// row. The budget is charged per shard; overflow hands the remaining input
// to a distinctSpiller (external dedupe on disk) when spilling is enabled,
// and fails with the typed BudgetError when it is not.
func (se *streamExec) parallelDistinctPull(in func() (*dataset.Table, error)) func() (*dataset.Table, error) {
	shards := se.workers
	seen := make([]map[string]bool, shards)
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	pipe := newParallelPipe(se.workers, 2*se.workers,
		func() (*dataset.Table, bool, error) {
			t, err := in()
			return t, t != nil, err
		},
		func(t *dataset.Table, _ int) (*distinctBatch, error) {
			n := t.NumRows()
			b := &distinctBatch{t: t, keys: make([]string, n), shard: make([]uint32, n)}
			for r := 0; r < n; r++ {
				b.keys[r] = streamRowKey(t.Row(r))
				b.shard[r] = hash32str(b.keys[r]) % uint32(shards)
			}
			return b, nil
		},
	)
	se.onStop(pipe.stop)
	var sp *distinctSpiller
	var tail func() (*dataset.Table, error)
	return func() (*dataset.Table, error) {
		for {
			if tail != nil {
				return tail()
			}
			b, ok, err := pipe.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				if sp == nil {
					return nil, nil
				}
				if tail, err = sp.resolve(); err != nil {
					return nil, err
				}
				continue
			}
			if sp != nil {
				if err := sp.add(b.t, b.keys); err != nil {
					return nil, err
				}
				continue
			}
			n := b.t.NumRows()
			keepBits := make([]bool, n)
			dedup := func(s int) {
				m := seen[s]
				for r := 0; r < n; r++ {
					if int(b.shard[r]) == s && !m[b.keys[r]] {
						m[b.keys[r]] = true
						keepBits[r] = true
					}
				}
			}
			var wg sync.WaitGroup
			for s := 1; s < shards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					dedup(s)
				}(s)
			}
			dedup(0)
			wg.Wait()
			overflow := false
			for s := 0; s < shards; s++ {
				if err := se.buffer(fmt.Sprintf("distinct#%d", s), len(seen[s])); err != nil {
					if !se.spillEnabled() {
						return nil, err
					}
					overflow = true
				}
			}
			if overflow {
				// This chunk's kept rows are still first occurrences —
				// emitted below, keys flushed into the emitted run.
				var keys []string
				for _, m := range seen {
					for k := range m {
						keys = append(keys, k)
					}
				}
				if sp, err = newDistinctSpiller(se, "distinct", keys); err != nil {
					return nil, err
				}
				for s := 0; s < shards; s++ {
					se.forceBuffer(fmt.Sprintf("distinct#%d", s), 0)
				}
				seen = nil
			}
			keep := make([]int, 0, n)
			for r, k := range keepBits {
				if k {
					keep = append(keep, r)
				}
			}
			if len(keep) == n {
				return b.t, nil
			}
			if len(keep) == 0 {
				continue
			}
			return b.t.Take(keep), nil
		}
	}
}

// streamRowKey renders a row the way Table.Distinct does, so streaming
// DISTINCT keeps exactly the rows the materialized path keeps.
func streamRowKey(row []dataset.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Type.String())
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// offsetLimitPull skips Offset rows and truncates at Limit, streaming.
func offsetLimitPull(in func() (*dataset.Table, error), offset, limit int) func() (*dataset.Table, error) {
	skipped, emitted := 0, 0
	done := false
	return func() (*dataset.Table, error) {
		for {
			if done {
				return nil, nil
			}
			if limit >= 0 && emitted >= limit {
				done = true
				return nil, nil
			}
			t, err := in()
			if err != nil {
				return nil, err
			}
			if t == nil {
				done = true
				return nil, nil
			}
			if t.NumRows() == 0 {
				continue
			}
			if skipped < offset {
				skip := min(offset-skipped, t.NumRows())
				skipped += skip
				if skip == t.NumRows() {
					continue
				}
				t = t.Window(skip, t.NumRows())
			}
			if limit >= 0 {
				if rem := limit - emitted; t.NumRows() > rem {
					t = t.Window(0, rem)
				}
			}
			emitted += t.NumRows()
			return t, nil
		}
	}
}

// ensureOneChunk guarantees the stream emits at least one (possibly empty)
// chunk so consumers always observe the result schema.
func ensureOneChunk(in func() (*dataset.Table, error), empty func() (*dataset.Table, error)) func() (*dataset.Table, error) {
	emitted, done := false, false
	return func() (*dataset.Table, error) {
		if done {
			return nil, nil
		}
		t, err := in()
		if err != nil {
			return nil, err
		}
		if t == nil {
			done = true
			if !emitted {
				return empty()
			}
			return nil, nil
		}
		emitted = true
		return t, nil
	}
}

// rechunkTable re-emits a materialized table as bounded zero-copy windows;
// an empty table still yields one empty chunk carrying the schema.
func rechunkTable(t *dataset.Table, chunk int) func() (*dataset.Table, error) {
	off, done := 0, false
	return func() (*dataset.Table, error) {
		if done {
			return nil, nil
		}
		n := t.NumRows()
		if n == 0 {
			done = true
			return t, nil
		}
		if off >= n {
			done = true
			return nil, nil
		}
		end := min(off+chunk, n)
		out := t.Window(off, end)
		off = end
		return out, nil
	}
}
