package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"datachat/internal/client"
	"datachat/internal/dataset"
	"datachat/internal/wire"
)

// sample is one client-observed step of the closed loop.
type sample struct {
	Kind  string // "read" (a stream request), "open" (session open) or "write" (refresh cycle)
	Req   *request
	Start time.Time
	TTFB  time.Time
	End   time.Time
	Bytes int64
	Err   error
	Got   outcome
	// Dashboard reads: the board-table version window the read overlapped.
	Lo, Hi int
	// Write cycles: the table versions the board must show.
	Vers   [dashTables]int
	Warm   bool
	ID     int64
	Client int
}

func (s *sample) ms() float64 { return float64(s.End.Sub(s.Start).Nanoseconds()) / 1e6 }

var reqIDs atomic.Int64

// runner is one closed-loop client: it sends its next request only after
// the previous one completed.
type runner struct {
	e       *env
	c       *client.Client
	id      int
	stream  *requestStream
	session string
	inSess  int
	prev    string // output of the previous GEL step
	sessN   int
	mu      sync.Mutex
	samples []sample
	reads   atomic.Int64
	warm    bool
}

func newRunner(e *env, seed int64, id int) *runner {
	return &runner{e: e, c: e.client(), id: id, stream: newStream(e.workload, seed, id)}
}

func (r *runner) record(s sample) {
	s.Warm, s.Client = r.warm, r.id
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// timed runs fn with a fresh request ID on the context and records a sample
// of kind.
func (r *runner) timed(ctx context.Context, kind string, fn func(ctx context.Context, s *sample) error) sample {
	c := &call{id: reqIDs.Add(1)}
	s := sample{Kind: kind, ID: c.id, Start: time.Now()}
	s.Err = fn(withCall(ctx, c), &s)
	s.End = time.Now()
	s.TTFB, s.Bytes = c.ttfb, c.bytes.Load()
	if s.TTFB.IsZero() {
		s.TTFB = s.End
	}
	if r.e.tr.on.Load() {
		r.e.tr.addID(c.id, "client.request", c.id, 0, s.Start, s.End)
	}
	return s
}

// openSession retires the current session and opens a new one, loading the
// datasets the stream names.
func (r *runner) openSession(ctx context.Context) error {
	r.sessN++
	r.session = fmt.Sprintf("c%d-s%d-%t", r.id, r.sessN, r.warm)
	r.inSess, r.prev = 0, ""
	s := r.timed(ctx, "open", func(ctx context.Context, _ *sample) error {
		if _, err := r.c.CreateSession(ctx, r.session, "analyst"); err != nil {
			return err
		}
		_, err := r.c.Run(ctx, r.session, wire.RunRequest{User: "analyst", Program: sessionOpen(r.e.workload)})
		return err
	})
	r.record(s)
	return s.Err
}

// step sends the next request of the stream and records it.
func (r *runner) step(ctx context.Context) {
	// Sessions rotate between GEL episodes, never inside one.
	if r.session == "" || (r.inSess >= sessionSpan && len(r.stream.pending) == 0) {
		if err := r.openSession(ctx); err != nil {
			return
		}
	}
	r.inSess++
	req := r.stream.Next()
	current := req.Current
	if current == "@prev" {
		current = r.prev
	}
	var lo int
	if req.Table >= 0 {
		lo = int(r.e.done[req.Table].Load())
	}
	s := r.timed(ctx, "read", func(ctx context.Context, s *sample) error {
		w, err := req.wireRequest(r.e.p.Registry, current)
		if err != nil {
			return err
		}
		if req.Stream {
			return r.stream1(ctx, w, s)
		}
		resp, err := r.c.Run(ctx, r.session, w)
		if err != nil {
			return err
		}
		if resp.Result == nil || resp.Result.Table == nil {
			return fmt.Errorf("response carries no table")
		}
		if resp.Result.Degraded {
			return fmt.Errorf("unrequested degraded result: %s", resp.Result.DegradedNote)
		}
		t := resp.Result.Table
		s.Got = outcome{Cols: colNames(t.Cols), Total: t.TotalRows}
		for _, row := range t.Rows {
			s.Got.D.add(row)
		}
		if req.Form == "gel" && len(resp.Nodes) > 0 {
			r.prev = fmt.Sprintf("node%d", resp.Nodes[len(resp.Nodes)-1])
		}
		return nil
	})
	s.Req = req
	if req.Table >= 0 {
		s.Lo, s.Hi = lo, int(r.e.started[req.Table].Load())
	}
	r.record(s)
	r.reads.Add(1)
}

// stream1 consumes one NDJSON run stream up to its sentinel, folding rows
// into the digest as they arrive.
func (r *runner) stream1(ctx context.Context, w wire.RunRequest, s *sample) error {
	hdr, st, err := r.c.RunStreamStats(ctx, r.session, w, func(h *wire.Table, rc wire.RowChunk) error {
		for _, row := range rc.Rows {
			s.Got.D.add(row)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if st != nil && st.Degraded {
		return fmt.Errorf("unrequested degraded stream: %s", st.DegradedNote)
	}
	s.Got.Cols, s.Got.Total = colNames(hdr.Cols), hdr.TotalRows
	return nil
}

func colNames(cols []wire.ColumnMeta) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// --- Writer: the refresh cycle ---

// writer replaces one board table, runs the refresh schedule, and reads the
// board back.
type writer struct {
	e   *env
	r   *runner // owns the client and the sample log
	rng *rand.Rand
	// next is the coupled cycle due next: it runs once next*writeEvery
	// reads have completed.
	next int64
}

func newWriter(e *env, seed int64) *writer {
	return &writer{e: e, r: newRunner(e, seed, 99), rng: rand.New(rand.NewSource(seed*101 + 5)), next: 1}
}

func (w *writer) cycle(ctx context.Context) {
	t := w.rng.Intn(dashTables)
	v := int(w.e.started[t].Load()) + 1
	f := w.e.data.dashTable(t, v)
	tbl := dataset.MustNewTable(f.name,
		dataset.IntColumn("id", f.ints["id"], nil),
		dataset.StringColumn("host", f.strs["host"], nil),
		dataset.IntColumn("val", f.ints["val"], nil),
		dataset.IntColumn("lat", f.ints["lat"], nil))
	var vers [dashTables]int
	for i := range vers {
		vers[i] = int(w.e.started[i].Load())
	}
	vers[t] = v
	s := w.r.timed(ctx, "write", func(ctx context.Context, s *sample) error {
		w.e.started[t].Store(int64(v))
		err := w.e.db.ReplaceTable(tbl)
		w.e.done[t].Store(int64(v))
		replaced := time.Now()
		if w.e.tr.on.Load() {
			w.e.tr.add("cloud.replace", s.ID, s.ID, s.Start, replaced)
		}
		if err != nil {
			return err
		}
		run, err := w.r.c.RunScheduleNow(ctx, "refresh")
		ran := time.Now()
		if w.e.tr.on.Load() {
			w.e.tr.add("scheduler.run", s.ID, s.ID, replaced, ran)
		}
		if err != nil {
			return err
		}
		if run.Skipped || run.Error != "" || run.Degraded {
			return fmt.Errorf("refresh not clean: skipped=%v (%s) err=%q degraded=%v", run.Skipped, run.SkipReason, run.Error, run.Degraded)
		}
		info, err := w.r.c.Board(ctx, "board", fullPage)
		if w.e.tr.on.Load() {
			w.e.tr.add("board.get", s.ID, s.ID, ran, time.Now())
		}
		if err != nil {
			return err
		}
		for _, tile := range info.Tiles {
			if tile.Tile != "hot" || tile.Last == nil || tile.Last.Table == nil {
				continue
			}
			if tile.Last.Version < run.BoardVersion {
				return fmt.Errorf("board shows version %d, refresh published %d", tile.Last.Version, run.BoardVersion)
			}
			if tile.Last.Degraded || tile.Last.RunError != "" {
				return fmt.Errorf("board tile not clean: degraded=%v err=%q", tile.Last.Degraded, tile.Last.RunError)
			}
			tt := tile.Last.Table
			s.Got = outcome{Cols: colNames(tt.Cols), Total: tt.TotalRows}
			for _, row := range tt.Rows {
				s.Got.D.add(row)
			}
			return nil
		}
		return fmt.Errorf("board has no hot tile")
	})
	s.Vers = vers
	w.r.record(s)
}

// run drives write cycles at a fixed ratio to the readers' completed reads.
func (w *writer) run(ctx context.Context, reads func() int64) {
	// A cycle that started completes, like a reader's request.
	coupled(ctx, reads, writeEvery, &w.next, func() { w.cycle(context.Background()) })
}

// coupled runs cycle *next once *next*every reads have completed, advancing
// *next, until ctx ends. Keeping the count outside lets a window that
// follows another resume where it stopped. A fixed ratio rather than a
// timer keeps the share of reads that follow a write independent of how
// fast the system is.
func coupled(ctx context.Context, reads func() int64, every int64, next *int64, cycle func()) {
	for {
		for reads() < *next*every {
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
		if ctx.Err() != nil {
			return
		}
		cycle()
		*next++
	}
}

// --- Driving a workload ---

// load is the set of closed-loop clients a workload runs.
type load struct {
	readers []*runner
	writer  *writer
}

func newLoad(e *env, seed int64) *load {
	l := &load{}
	nReaders := 1
	if e.workload == "explore" {
		nReaders = 2
	}
	for i := 0; i < nReaders; i++ {
		l.readers = append(l.readers, newRunner(e, seed, i))
	}
	l.writer = newWriter(e, seed)
	return l
}

func (l *load) reads() int64 {
	var n int64
	for _, r := range l.readers {
		n += r.reads.Load()
	}
	return n
}

// warm runs n requests per reader (and, for the dashboard, every query
// once so the working set is cached) outside the timed window.
func (l *load) warm(ctx context.Context, n int) {
	for _, r := range l.readers {
		r.warm = true
		steps := n
		if r.e.workload == "dashboard" {
			for _, q := range r.stream.queries {
				r.stream.pending = append(r.stream.pending, q)
			}
			steps += len(r.stream.queries)
		}
		// Finish any GEL episode so the window starts on a fresh one.
		for i := 0; i < steps || len(r.stream.pending) > 0; i++ {
			r.step(ctx)
		}
		r.warm = false
		r.reads.Store(0)
		// The timed window opens a fresh session so no client starts with
		// a half-used one.
		r.session = ""
	}
	if l.readers[0].e.workload == "dashboard" {
		l.writer.r.warm = true
		l.writer.cycle(ctx)
		l.writer.r.warm = false
	}
}

// run drives the readers (and the dashboard writer) until ctx expires;
// requests in flight at the deadline complete and count.
func (l *load) run(ctx context.Context, withWriter bool) {
	var wg sync.WaitGroup
	for _, r := range l.readers {
		wg.Add(1)
		go func(r *runner) {
			defer wg.Done()
			for ctx.Err() == nil {
				r.step(context.Background())
			}
		}(r)
	}
	if withWriter {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.writer.run(ctx, l.reads)
		}()
	}
	wg.Wait()
}

// samples returns every recorded sample, readers first.
func (l *load) samples() []sample {
	var out []sample
	for _, r := range append(l.readers, l.writer.r) {
		r.mu.Lock()
		out = append(out, r.samples...)
		r.mu.Unlock()
	}
	return out
}

// verify checks every sample against the oracle after the timed window and
// returns the failures, keyed by sample index.
func verify(d *benchData, ss []sample) map[int]string {
	o := &oracle{d: d, memo: map[string]outcome{}}
	bad := map[int]string{}
	for i := range ss {
		s := &ss[i]
		if s.Err != nil {
			bad[i] = s.Err.Error()
			continue
		}
		switch s.Kind {
		case "write":
			if want := d.expectBoard(s.Vers); !want.equal(s.Got) {
				bad[i] = fmt.Sprintf("board at versions %v: got %s, want %s", s.Vers, s.Got, want)
			}
		case "read":
			lo, hi := s.Lo, s.Hi
			if s.Req.Table < 0 {
				lo, hi = 0, 0
			}
			ok, msg := false, ""
			for v := lo; v <= hi && !ok; v++ {
				want, err := o.get(s.Req, v)
				if err != nil {
					msg = err.Error()
					break
				}
				ok = want.equal(s.Got)
				if !ok {
					msg = fmt.Sprintf("%s %s %v: got %s, want %s", s.Req.Form, s.Req.Tmpl, s.Req.Args, s.Got, want)
				}
			}
			if !ok {
				bad[i] = msg
			}
		}
	}
	return bad
}
