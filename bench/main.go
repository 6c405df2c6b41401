// Command bench is the repository benchmark. It boots datachatd's handler
// over loopback HTTP in one process, drives it with one of three seeded
// closed-loop workloads (explore, export, dashboard), checks every response
// against an oracle computed from the generated data, and prints the
// metrics as one JSON line:
//
//	bash bench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 the
// window is cut into slices that alternate between untraced and traced;
// spans from the traced slices, counter deltas over the whole window and an
// in-process replay give the per-layer metrics, and the difference between
// the two kinds of slice is reported as the tracing overhead. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	setupReps   = 3  // set-ups per run; setup_s is their median
	probeCycles = 60 // refresh cycles after the window on writer-less workloads
	replayLimit = 5 * time.Second
	outDir      = ".bench_out"
)

// traceOrder is the traced run's slice order (true = traced). Untraced and
// traced slices alternate as ABBA ABBA, so drift over the run (heap growth,
// cache state, table versions) falls on both kinds alike.
var traceOrder = []bool{false, true, true, false, false, true, true, false}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "explore, export or dashboard")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) (bool, error) {
	switch o.workload {
	case "explore", "export", "dashboard":
	default:
		return false, fmt.Errorf("unknown workload %q (want explore, export or dashboard)", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return false, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	ctx := context.Background()
	tr := newTracer()

	// Set-up, repeated: data generation, registration, warehouse load,
	// board and schedule creation, and warm-up. The last one is kept.
	var e *env
	var l *load
	var setup []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = boot(o.workload, o.seed, tr); err != nil {
			return false, err
		}
		if err := e.setupBoard(ctx, e.client()); err != nil {
			e.close()
			return false, fmt.Errorf("board set-up: %w", err)
		}
		l = newLoad(e, o.seed)
		l.warm(ctx, warmSteps(o.workload))
		setup = append(setup, time.Since(start).Seconds())
	}
	defer e.close()

	withWriter := o.workload == "dashboard"
	total := time.Duration(o.seconds) * time.Second
	order := []bool{false}
	if o.trace == 1 {
		order = traceOrder
	}
	var wins []*window
	for _, on := range order {
		tr.on.Store(on)
		w, err := timedWindow(ctx, e, l, total/time.Duration(len(order)), withWriter)
		if err != nil {
			return false, err
		}
		wins = append(wins, w)
	}
	tr.on.Store(false)
	whole := merge(wins)

	// Refresh cycles: the live writer's on the dashboard, a post-window
	// probe on an otherwise idle server elsewhere. The probe starts from a
	// collected heap, so the window's garbage is not collected inside it.
	cycles, cycBefore, cycAfter := whole.of("write"), whole.before, whole.after
	if !withWriter {
		runtime.GC()
		var err error
		if cycBefore, err = e.snap(ctx); err != nil {
			return false, err
		}
		tr.on.Store(o.trace == 1)
		for i := 0; i < probeCycles; i++ {
			l.writer.cycle(ctx)
		}
		tr.on.Store(false)
		if cycAfter, err = e.snap(ctx); err != nil {
			return false, err
		}
		cycles = l.writer.r.samples[len(l.writer.r.samples)-probeCycles:]
	}
	refresh := latencies(cycles)

	// Output checks, after every timed window.
	all := l.samples()
	bad := verify(e.data, all)
	attempted, failed, warmBad := 0, 0, 0
	for i, s := range all {
		if s.Warm {
			if _, ok := bad[i]; ok {
				warmBad++
			}
			continue
		}
		attempted++
		if _, ok := bad[i]; ok {
			failed++
		}
	}
	shown := 0
	for _, i := range sortedInts(bad) {
		if shown++; shown <= 5 {
			fmt.Fprintf(os.Stderr, "bench: check failed: %s\n", bad[i])
		}
	}

	res := result{Attempted: attempted, Failed: failed}
	res.Correct = failed == 0 && warmBad == 0
	reads := float64(len(whole.of("read")))
	counts := map[string]float64{
		"reads": reads, "opens": float64(len(whole.of("open"))), "refresh_cycles": float64(len(cycles)),
		"highest_percentile_with_10_beyond": highestPercentile(int(reads)),
	}
	if o.trace == 0 {
		m, err := endToEnd(whole, setup, refresh)
		if err != nil {
			return false, err
		}
		res.Metrics = m
	} else {
		reqs := tracedRequests(whole)
		rp, err := e.replay(reqs, replayLimit)
		if err != nil {
			return false, err
		}
		counts["replayed"] = float64(rp.requests)
		res.Metrics = perLayer(whole, tr, rp, cycles, cycBefore, cycAfter)
		p50, rps := traceOverhead(wins, order)
		res.Metrics["trace.overhead_req_p50_frac"] = metric{p50, "frac"}
		res.Metrics["trace.overhead_rps_frac"] = metric{rps, "frac"}
		// The output checks as a layer: its healthy value is 0, so it is
		// reported here rather than as a bounded end-to-end metric.
		res.Metrics["fail_frac"] = metric{float64(failed) / float64(max(attempted, 1)), "frac"}
		if err := writeSpans(o, tr); err != nil {
			return false, err
		}
	}

	prov := provenance(o, e)
	prov["samples"] = counts
	prov["templates"] = templateStats(whole)
	prov["setup_s_each"] = setup
	if err := report(o, prov, res); err != nil {
		return false, err
	}
	return res.Correct, nil
}

func warmSteps(workload string) int {
	switch workload {
	case "explore":
		return 8
	case "export":
		return 24
	}
	return 5
}

// timedWindow runs the closed loop for d, bracketed by counter snapshots.
func timedWindow(ctx context.Context, e *env, l *load, d time.Duration, withWriter bool) (*window, error) {
	runtime.GC()
	w := &window{}
	var err error
	if w.before, err = e.snap(ctx); err != nil {
		return nil, err
	}
	heap := sampleHeap()
	w.start = time.Now()
	wctx, cancel := context.WithDeadline(ctx, w.start.Add(d))
	l.run(wctx, withWriter)
	cancel()
	w.end = time.Now()
	w.peakHeap = heap.end()
	if w.after, err = e.snap(ctx); err != nil {
		return nil, err
	}
	for _, s := range l.samples() {
		if !s.Warm && !s.Start.Before(w.start) && s.Start.Before(w.start.Add(d)) {
			w.samples = append(w.samples, s)
		}
	}
	return w, nil
}

// tracedRequests is the traced window's request stream, client by client in
// send order, so each GEL episode stays in one piece.
func tracedRequests(w *window) []*request {
	reads := w.of("read")
	sort.SliceStable(reads, func(i, j int) bool {
		if reads[i].Client != reads[j].Client {
			return reads[i].Client < reads[j].Client
		}
		return reads[i].Start.Before(reads[j].Start)
	})
	out := make([]*request, 0, len(reads))
	for _, s := range reads {
		out = append(out, s.Req)
	}
	return out
}

func sortedInts(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// templateStats summarizes the window's reads per request template, so a
// regression can be traced to the request shape that moved.
func templateStats(w *window) map[string]any {
	lat, ttfb := map[string][]float64{}, map[string][]float64{}
	for _, s := range w.of("read") {
		lat[s.Req.Tmpl] = append(lat[s.Req.Tmpl], s.ms())
		ttfb[s.Req.Tmpl] = append(ttfb[s.Req.Tmpl], float64(s.TTFB.Sub(s.Start).Nanoseconds())/1e6)
	}
	out := map[string]any{}
	for k, v := range lat {
		out[k] = map[string]float64{"n": float64(len(v)), "p50_ms": median(v), "p95_ms": percentile(v, 95), "first_byte_p50_ms": median(ttfb[k])}
	}
	return out
}

// provenance records the machine, toolchain, source and configuration.
func provenance(o options, e *env) map[string]any {
	cfg := e.cfg
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": sourceID(),
		"server_config": map[string]any{
			"max_in_flight": cfg.MaxInFlight, "max_queue": cfg.MaxQueue, "max_background": cfg.MaxBackground,
			"retry_attempts": cfg.Retry.MaxAttempts, "retry_after_ms": cfg.RetryAfter.Milliseconds(),
		},
	}
}

// sourceID names the code measured by a hash of the Go sources under the
// working directory (the benchmark runs from checkouts that are not git
// repositories).
func sourceID() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:8])
}

// report prints the provenance line, a readable summary on stderr, and the
// result as the last line of stdout, and keeps a copy under .bench_out.
func report(o options, prov map[string]any, res result) error {
	pl, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	rl, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
		_ = os.WriteFile(path, append(append(pl, '\n'), rl...), 0o644)
	}
	fmt.Println(string(pl))
	fmt.Println(string(rl))
	return nil
}

// writeSpans writes the traced run's spans, kept in memory until now.
func writeSpans(o options, tr *tracer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), data, 0o644)
}
