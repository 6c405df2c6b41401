package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"datachat/internal/board"
	"datachat/internal/dag"
	"datachat/internal/scheduler"
	"datachat/internal/sqlengine"
	"datachat/internal/wire"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile is the nearest-rank p-th percentile of xs (p in (0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// highestPercentile is the highest of the usual percentiles that still has
// at least ten samples beyond it; 0 when even the median has not.
func highestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		// Samples strictly beyond the nearest-rank position of p.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank >= 10 {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// --- Counter snapshots ---

// rtMetrics are the Go runtime figures the harness takes deltas of.
var rtMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, m := range s {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		}
	}
	return out
}

// snapshot is every public counter the harness reads around a window.
type snapshot struct {
	exec    dag.Stats
	cache   dag.CacheStats
	vec     map[string]int64
	queries int
	scanned int64
	statsz  *wire.Statsz
	sched   scheduler.Stats
	hub     board.Stats
	rt      []float64
	cpu     time.Duration // process user+system CPU time
}

// processCPU is the CPU time the process has used; per request it is the
// cost of serving one.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) snap(ctx context.Context) (snapshot, error) {
	st, err := e.client().Statsz(ctx)
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{
		exec: e.p.ExecStats(), cache: e.p.CacheStats(), vec: sqlengine.VecCounters(),
		queries: e.db.Meter().Queries(), scanned: e.db.Meter().BytesScanned(), statsz: st,
		sched: e.sched.Stats(), hub: e.hub.Stats(), rt: readRuntime(), cpu: processCPU(),
	}, nil
}

// heapSampler records the peak live heap (as marked by the latest GC) while
// a window runs. Unlike the heap's momentary size it does not depend on
// when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := readRuntime()[4]; v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in bytes.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// --- End-to-end metrics ---

// window is one timed stretch of the closed loop.
type window struct {
	start, end time.Time
	before     snapshot
	after      snapshot
	peakHeap   float64
	samples    []sample
}

// merge joins consecutive windows into one spanning them all.
func merge(ws []*window) *window {
	first, last := ws[0], ws[len(ws)-1]
	m := &window{start: first.start, end: last.end, before: first.before, after: last.after}
	for _, w := range ws {
		m.peakHeap = math.Max(m.peakHeap, w.peakHeap)
		m.samples = append(m.samples, w.samples...)
	}
	return m
}

func (w *window) of(kind string) []sample {
	var out []sample
	for _, s := range w.samples {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// latencies returns each sample's duration in ms.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ss[i].ms()
	}
	return out
}

// endToEnd computes the user-visible metrics of a window. refresh holds the
// refresh-cycle latencies in ms (the live writer's, or the post-window
// probe's on workloads without a writer).
// It refuses a window too short for req_p95_ms to have ten samples beyond
// it.
func endToEnd(w *window, setup []float64, refresh []float64) (map[string]metric, error) {
	reads := w.of("read")
	if p := highestPercentile(len(reads)); p < 95 {
		return nil, fmt.Errorf("%d reads leave fewer than 10 samples beyond p95; lengthen --seconds", len(reads))
	}
	lat := latencies(reads)
	ttfb := make([]float64, len(reads))
	rows := 0
	for i, s := range reads {
		ttfb[i] = float64(s.TTFB.Sub(s.Start).Nanoseconds()) / 1e6
		rows += s.Got.D.Rows
	}
	secs := w.end.Sub(w.start).Seconds()
	n := math.Max(float64(len(reads)), 1)
	return map[string]metric{
		"setup_s":            {median(setup), "s"},
		"req_p50_ms":         {percentile(lat, 50), "ms"},
		"req_p95_ms":         {percentile(lat, 95), "ms"},
		"throughput_rps":     {float64(len(reads)) / secs, "1/s"},
		"alloc_mb_per_req":   {(w.after.rt[0] - w.before.rt[0]) / n / 1e6, "MB"},
		"peak_heap_mb":       {w.peakHeap / 1e6, "MB"},
		"first_chunk_p50_ms": {percentile(ttfb, 50), "ms"},
		"export_rows_per_s":  {float64(rows) / secs, "rows/s"},
		"refresh_p50_ms":     {percentile(refresh, 50), "ms"},
	}, nil
}

// --- Per-layer metrics ---

// perLayer computes the layer metrics of the traced run from counter deltas
// over its whole window, the spans of its traced slices, the in-process
// replay and the refresh cycles.
func perLayer(w *window, tr *tracer, rp *replayStats, cycles []sample, cycBefore, cycAfter snapshot) map[string]metric {
	b, a := w.before, w.after
	srvReq := float64(a.statsz.Server.Requests - b.statsz.Server.Requests)
	perReq := func(x float64) float64 { return x / math.Max(srvReq, 1) }
	refusals := float64((a.statsz.Server.Busy409 + a.statsz.Server.Throttled429 + a.statsz.Server.Draining503 + a.statsz.Server.Deadline504) -
		(b.statsz.Server.Busy409 + b.statsz.Server.Throttled429 + b.statsz.Server.Draining503 + b.statsz.Server.Deadline504))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// server and client: spans at the handler wrapper and the transport, for
	// the window's stream requests (one HTTP call each; session opens and
	// refresh cycles make several under one ID).
	handle := tr.byReq("server.handle")
	client := tr.byReq("client.request")
	reads := w.of("read")
	var handles, overheads []float64
	for _, s := range reads {
		h, okh := handle[s.ID]
		c, okc := client[s.ID]
		if okh && okc {
			handles = append(handles, h)
			overheads = append(overheads, c-h)
		}
	}
	put("server.handle_ms_p50", median(handles), "ms")
	queuedFrac, waitMean := admissionWindow(b.statsz, a.statsz)
	put("server.admission_wait_p50_ms", admissionP50(a.statsz), "ms")
	put("server.admission_wait_mean_ms", waitMean, "ms")
	put("server.admission_queued_frac", queuedFrac, "frac")
	put("server.refused_frac", refusals/math.Max(srvReq+refusals, 1), "frac")
	put("client.overhead_ms_p50", median(overheads), "ms")

	var bytes float64
	for _, s := range reads {
		bytes += float64(s.Bytes)
	}
	put("wire.encode_ms_p50", median(rp.encode), "ms")
	put("wire.response_bytes_per_req", bytes/math.Max(float64(len(reads)), 1), "B")
	put("gel.parse_us_p50", median(rp.gel), "us")
	put("pyapi.translate_us_p50", median(rp.py), "us")
	put("plan.explain_ms_p50", median(rp.explain), "ms")
	put("plan.nodes_consolidated_per_req", perReq(float64(a.exec.NodesConsolidated-b.exec.NodesConsolidated)), "count")
	put("plan.query_blocks_per_req", perReq(float64(a.exec.QueryBlocks-b.exec.QueryBlocks)), "count")
	put("session.busy_refusals", float64(a.statsz.Server.Busy409-b.statsz.Server.Busy409), "count")

	hits, misses := float64(a.cache.Hits-b.cache.Hits), float64(a.cache.Misses-b.cache.Misses)
	put("dag.cache_hit_frac", hits/math.Max(hits+misses, 1), "frac")
	put("dag.cache_evictions_per_req", perReq(float64(a.cache.Evictions-b.cache.Evictions)), "count")
	put("dag.tasks_per_req", perReq(float64(a.exec.TasksRun-b.exec.TasksRun)), "count")
	put("dag.rows_materialized_per_req", perReq(float64(a.exec.RowsMaterialized-b.exec.RowsMaterialized)), "rows")
	put("dag.retries", float64(a.exec.Retries-b.exec.Retries), "count")
	put("dag.degraded", float64(a.exec.Degraded-b.exec.Degraded), "count")

	put("sqlengine.exec_ms_p50", median(rp.exec), "ms")
	put("sqlengine.first_chunk_ms_p50", median(rp.firstChunk), "ms")
	put("sqlengine.drain_rows_per_s", rp.drainRows/math.Max(rp.drainSecs, 1e-9), "rows/s")
	put("sqlengine.drain_alloc_bytes_per_row", rp.drainAlloc/math.Max(rp.drainRows, 1), "B/row")
	var vecOps, vecFalls float64
	for _, k := range []string{"filters", "projections", "groups", "joins"} {
		vecOps += float64(a.vec[k] - b.vec[k])
	}
	for _, k := range []string{"filter_fallbacks", "projection_fallbacks", "group_fallbacks", "residual_fallbacks"} {
		vecFalls += float64(a.vec[k] - b.vec[k])
	}
	put("sqlengine.vec_fallback_frac", vecFalls/math.Max(vecOps, 1), "frac")
	put("sqlengine.peak_buffered_rows", rp.peakBuffered, "rows")
	put("sqlengine.spilled_rows_per_input_row", float64(a.exec.SpilledRows-b.exec.SpilledRows)/math.Max(streamInputRows(reads), 1), "frac")
	put("sqlengine.spill_runs_per_req", perReq(float64(a.exec.SpillRuns-b.exec.SpillRuns)), "count")
	put("sqlengine.stream_fallback_frac", rp.fellBack/math.Max(rp.streamed, 1), "frac")

	put("cloud.scans_per_req", perReq(float64(a.queries-b.queries)), "count")
	put("cloud.bytes_scanned_per_req", perReq(float64(a.scanned-b.scanned)), "B")
	put("cloud.scan_ms_p50", median(tr.durations("cloud.scan")), "ms")
	put("cloud.replace_ms_p50", median(tr.durations("cloud.replace")), "ms")
	put("scheduler.run_ms_p50", median(tr.durations("scheduler.run")), "ms")
	put("board.get_ms_p50", median(tr.durations("board.get")), "ms")
	nodes := float64(cycAfter.sched.NodesTotal - cycBefore.sched.NodesTotal)
	put("scheduler.unchanged_node_frac", float64(cycAfter.sched.NodesUnchanged-cycBefore.sched.NodesUnchanged)/math.Max(nodes, 1), "frac")
	put("scheduler.skips", float64(cycAfter.sched.Skips-cycBefore.sched.Skips), "count")
	put("board.publishes_per_refresh", float64(cycAfter.hub.Publishes-cycBefore.hub.Publishes)/math.Max(float64(len(cycles)), 1), "count")
	put("dataset.csv_parse_ms", rp.csvParse, "ms")

	cpu := a.rt[3] - b.rt[3]
	put("runtime.gc_cycles_per_req", perReq(a.rt[1]-b.rt[1]), "count")
	put("runtime.gc_cpu_frac", (a.rt[2]-b.rt[2])/math.Max(cpu, 1e-9), "frac")
	put("runtime.cpu_ms_per_req", float64((a.cpu-b.cpu).Microseconds())/1e3/math.Max(float64(len(reads)), 1), "ms")

	return m
}

// traceOverhead compares the traced slices with the untraced ones: the
// relative rise of the median slice's req_p50_ms, and the relative fall of
// its throughput.
func traceOverhead(wins []*window, traced []bool) (p50Frac, rpsFrac float64) {
	var p50 [2][]float64
	var rps [2][]float64
	for i, w := range wins {
		k := 0
		if traced[i] {
			k = 1
		}
		reads := w.of("read")
		p50[k] = append(p50[k], percentile(latencies(reads), 50))
		rps[k] = append(rps[k], float64(len(reads))/w.end.Sub(w.start).Seconds())
	}
	p50Frac = median(p50[1])/math.Max(median(p50[0]), 1e-9) - 1
	rpsFrac = median(rps[0])/math.Max(median(rps[1]), 1e-9) - 1
	return p50Frac, rpsFrac
}

// admissionP50 is the server's bucketed median interactive admission wait
// (an upper bucket bound over the server's lifetime).
func admissionP50(st *wire.Statsz) float64 {
	if st.Admission == nil {
		return 0
	}
	return st.Admission.Interactive.P50WaitMs
}

// admissionWindow is the share of the window's interactive admissions that
// had to queue for a slot, and their mean wait, from deltas of /statsz's
// queued count and its mean wait per queued request.
func admissionWindow(b, a *wire.Statsz) (queuedFrac, meanMs float64) {
	if a.Admission == nil || b.Admission == nil {
		return 0, 0
	}
	ca, cb := a.Admission.Interactive, b.Admission.Interactive
	admitted, queued := float64(ca.Admitted-cb.Admitted), float64(ca.Queued-cb.Queued)
	if admitted <= 0 {
		return 0, 0
	}
	waitMs := ca.AvgWaitMs*float64(ca.Queued) - cb.AvgWaitMs*float64(cb.Queued)
	return queued / admitted, waitMs / admitted
}

// streamInputRows is the number of source rows the window's streamed
// requests read (each scans its whole source table).
func streamInputRows(reads []sample) float64 {
	var n float64
	for _, s := range reads {
		if s.Req != nil && s.Req.Stream {
			n += bigRows
		}
	}
	return n
}
