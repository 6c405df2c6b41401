package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datachat/internal/board"
	"datachat/internal/client"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/scheduler"
	"datachat/internal/server"
)

// serverConfig copies datachatd's flag defaults: GOMAXPROCS slots, a queue
// twice that deep, and three transient-retry attempts. The zero Config
// queues nothing and would turn a burst into 429s.
func serverConfig() server.Config {
	inFlight := runtime.GOMAXPROCS(0)
	return server.Config{
		MaxInFlight: inFlight,
		MaxQueue:    2 * inFlight,
		// datachatd's -max-background default: half the slots, at least one.
		MaxBackground: max(1, inFlight/2),
		RetryAfter:    500 * time.Millisecond,
		Retry: faults.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    2 * time.Second,
			Multiplier:  2,
		},
	}
}

// env is one booted system under test: a platform behind datachatd's
// handler on a loopback listener, its warehouse, scheduler and board hub,
// plus the seams the harness owns (transport, handler wrapper, wrapped
// warehouse) where the traced run records spans.
type env struct {
	workload string
	data     *benchData
	cfg      server.Config
	p        *core.Platform
	srv      *server.Server
	db       *cloud.Database
	hub      *board.Hub
	sched    *scheduler.Scheduler
	hs       *http.Server
	served   chan struct{}
	url      string
	tr       *tracer
	tp       *http.Transport
	csv      map[string]string // every generated CSV input, by table name

	// Dashboard table versions: started is bumped before ReplaceTable,
	// done after it returns, so a read that began at done=v and ended at
	// started=w may legitimately have seen any version in [v, w].
	started, done [dashTables]atomic.Int64
}

// boot generates the workload's data, loads it, and starts serving.
func boot(workload string, seed int64, tr *tracer) (*env, error) {
	e := &env{workload: workload, data: genData(workload, seed), cfg: serverConfig(), tr: tr, csv: map[string]string{}}
	e.p = core.New()
	e.srv = server.New(e.p, e.cfg)
	e.hub = board.NewHub()
	e.sched = scheduler.New(e.p, e.hub)
	e.srv.AttachScheduler(e.sched, e.hub)
	for name, f := range e.data.files {
		text := f.csv()
		e.csv[f.name] = text
		e.p.RegisterFile(name, text)
	}
	e.db = cloud.NewDatabase("wh", cloud.DefaultPricing, 4096)
	for _, name := range sortedKeys(e.data.tables) {
		text := e.data.tables[name].csv()
		e.csv[name] = text
		t, err := dataset.ReadCSVString(name, text)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		if err := e.db.CreateTable(t); err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
	}
	if err := e.p.ConnectDatabase(&tracedDB{Database: e.db, tr: tr}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	e.tp = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	return e, nil
}

// client returns a datachat client whose transport tags requests for the
// handler wrapper and records time to first byte and response bytes.
func (e *env) client() *client.Client {
	return &client.Client{BaseURL: e.url, HTTP: &http.Client{Transport: &benchTransport{base: e.tp}}}
}

// close drains the server and stops the listener goroutine.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
	_ = e.hs.Shutdown(ctx)
	<-e.served
	e.tp.CloseIdleConnections()
}

// ServeHTTP wraps datachatd's handler: with tracing on it records a
// server.handle span under the client's request ID.
func (e *env) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !e.tr.on.Load() {
		e.srv.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	start := time.Now()
	e.srv.ServeHTTP(w, r)
	e.tr.add("server.handle", id, id, start, time.Now())
}

// setupBoard creates the board and the refresh schedule and runs it once,
// so every timed refresh is incremental.
func (e *env) setupBoard(ctx context.Context, c *client.Client) error {
	if _, err := c.CreateBoard(ctx, "board", "Board", "writer"); err != nil {
		return err
	}
	if _, err := c.CreateSchedule(ctx, scheduleRequest()); err != nil {
		return err
	}
	run, err := c.RunScheduleNow(ctx, "refresh")
	if err != nil {
		return err
	}
	if run.Skipped || run.Error != "" {
		return fmt.Errorf("cold refresh did not complete: skipped=%v err=%q", run.Skipped, run.Error)
	}
	return nil
}

// --- Seams: client transport, warehouse wrapper ---

const reqHeader = "X-Bench-Request"

type callKey struct{}

// call is the per-request record the transport fills in.
type call struct {
	id    int64
	ttfb  time.Time
	bytes atomic.Int64
}

func withCall(ctx context.Context, c *call) context.Context {
	return context.WithValue(ctx, callKey{}, c)
}

type benchTransport struct{ base http.RoundTripper }

func (b *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c, _ := req.Context().Value(callKey{}).(*call)
	if c == nil {
		return b.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(c.id, 10))
	resp, err := b.base.RoundTrip(req)
	c.ttfb = time.Now()
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedDB is the warehouse as the platform sees it: scans are timed into
// cloud.scan spans while tracing is on. The platform gives the warehouse no
// request context, so these spans carry no request ID.
type tracedDB struct {
	*cloud.Database
	tr *tracer
}

func (d *tracedDB) Scan(name string) (*dataset.Table, error) {
	if !d.tr.on.Load() {
		return d.Database.Scan(name)
	}
	start := time.Now()
	t, err := d.Database.Scan(name)
	d.tr.add("cloud.scan", 0, 0, start, time.Now())
	return t, err
}

func (d *tracedDB) SampleBlocks(name string, rate float64, seed int64) (*dataset.Table, error) {
	if !d.tr.on.Load() {
		return d.Database.SampleBlocks(name, rate, seed)
	}
	start := time.Now()
	t, err := d.Database.SampleBlocks(name, rate, seed)
	d.tr.add("cloud.scan", 0, 0, start, time.Now())
	return t, err
}

// --- Tracer ---

// span is one timed interval. Spans of one request share Req; Parent is the
// span that caused it (the client round trip is the root, ID = Req).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.next.Store(1 << 40) // span IDs above every request ID
	return t
}

// add records a span under a fresh ID.
func (t *tracer) add(name string, req, parent int64, start, end time.Time) {
	t.addID(t.next.Add(1), name, req, parent, start, end)
}

func (t *tracer) addID(id int64, name string, req, parent int64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of every span with that name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// byReq returns, per request ID, the duration in ms of its span of name.
func (t *tracer) byReq(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name && s.Req != 0 {
			out[s.Req] = float64(s.End-s.Start) / 1e6
		}
	}
	return out
}
