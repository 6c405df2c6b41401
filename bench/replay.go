package main

import (
	"encoding/json"
	"fmt"
	"time"

	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/pyapi"
	"datachat/internal/skills"
	"datachat/internal/sqlengine"
	"datachat/internal/wire"
)

// replayStats are self-times measured by replaying requests in process,
// calling each layer's public functions on the same inputs the server saw.
type replayStats struct {
	gel, py, explain, exec, firstChunk, encode []float64 // per call: gel/py in us, the rest in ms
	drainRows, drainSecs, drainAlloc           float64
	peakBuffered, streamed, fellBack           float64
	csvParse                                   float64 // ms, every CSV input once
	requests                                   int
}

// replayCatalog resolves the base tables of a compiled SQL fragment by
// executing the replay graph up to the producing node.
type replayCatalog struct {
	ex       *dag.Executor
	g        *dag.Graph
	resolved map[string]*dataset.Table
}

func (c *replayCatalog) Table(name string) (*dataset.Table, error) {
	if t, ok := c.resolved[name]; ok {
		return t, nil
	}
	id, ok := c.g.ProducerOf(name)
	if !ok {
		return nil, fmt.Errorf("replay: no dataset %q", name)
	}
	res, err := c.ex.Run(c.g, id)
	if err != nil {
		return nil, err
	}
	c.resolved[name] = res.Table
	return res.Table, nil
}

// openInvocations are the session-open loads as explicit invocations.
func openInvocations(workload string) []skills.Invocation {
	switch workload {
	case "explore":
		return []skills.Invocation{
			inv("LoadData", nil, "events", skills.Args{"source": "events.csv"}),
			inv("LoadData", nil, "dims", skills.Args{"source": "dims.csv"}),
		}
	case "export":
		return []skills.Invocation{inv("LoadTable", nil, "big", skills.Args{"database": "wh", "table": "big"})}
	}
	// Each board table is loaded with its columns named. After a table
	// replace, a bare LoadTable that misses the cache under a read's KeepRows
	// would take that filter by pushdown after its cache key was computed,
	// and later reads of the same table version would see the filtered rows
	// (see README, "Known program defect").
	var out []skills.Invocation
	for t := 0; t < dashTables; t++ {
		out = append(out, inv("LoadTable", nil, dashName(t), skills.Args{"database": "wh", "table": dashName(t), "columns": []string{"id", "host", "val", "lat"}}))
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// replay re-runs the given requests in process until budget is spent.
func (e *env) replay(reqs []*request, budget time.Duration) (*replayStats, error) {
	rp := &replayStats{}
	for _, name := range sortedKeys(e.csv) {
		start := time.Now()
		if _, err := dataset.ReadCSVString(name, e.csv[name]); err != nil {
			return nil, err
		}
		rp.csvParse += msSince(start)
	}

	sctx := skills.NewContext()
	for name, f := range e.data.files {
		sctx.PutFile(name, e.csv[f.name])
	}
	sctx.Cloud["wh"] = e.db
	ex := dag.NewExecutor(e.p.Registry, sctx)
	var g *dag.Graph
	deadline := time.Now().Add(budget)
	prev := ""
	for i, r := range reqs {
		if time.Now().After(deadline) {
			break
		}
		// Like a client, start a fresh graph every sessionSpan requests so
		// session-wide passes see an analyst-sized DAG.
		if i%sessionSpan == 0 {
			g, prev = dag.NewGraph(), ""
			for _, oi := range openInvocations(e.workload) {
				g.Add(oi)
			}
		}
		if r.Current == "@prev" && prev == "" {
			continue // the window opened inside this GEL episode
		}
		invs, err := e.replayFrontEnd(rp, r, prev, i)
		if err != nil {
			return nil, err
		}
		var target dag.NodeID
		for _, v := range invs {
			target = g.Add(v)
		}
		if r.Form == "gel" {
			prev = invs[0].Output
		} else {
			prev = ""
		}
		if err := e.replayBackEnd(rp, ex, g, target, r); err != nil {
			return nil, fmt.Errorf("replaying %s %v: %w", r.Tmpl, r.Args, err)
		}
		rp.requests++
	}
	return rp, nil
}

// replayFrontEnd times the request's front end (GEL parse or Python
// translation) and returns its invocations with replay-unique outputs.
func (e *env) replayFrontEnd(rp *replayStats, r *request, prev string, i int) ([]skills.Invocation, error) {
	w, err := r.wireRequest(e.p.Registry, r.Current)
	if err != nil {
		return nil, err
	}
	switch r.Form {
	case "gel":
		current := r.Current
		if current == "@prev" {
			current = prev
		}
		start := time.Now()
		v, err := e.p.ParseGEL(w.GEL, current)
		rp.gel = append(rp.gel, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
		v.Output = fmt.Sprintf("replay%d", i)
		return []skills.Invocation{v}, nil
	case "python":
		start := time.Now()
		prog, err := pyapi.Parse(w.Python)
		if err != nil {
			return nil, err
		}
		invs, err := pyapi.NewTranslator(e.p.Registry).Invocations(prog)
		rp.py = append(rp.py, float64(time.Since(start).Nanoseconds())/1e3)
		return invs, err
	}
	return r.Invs, nil
}

// replayBackEnd times planning, buffered and streamed SQL execution, and
// wire encoding for the request ending at target.
func (e *env) replayBackEnd(rp *replayStats, ex *dag.Executor, g *dag.Graph, target dag.NodeID, r *request) error {
	start := time.Now()
	if _, err := ex.Explain(g, target); err != nil {
		return err
	}
	rp.explain = append(rp.explain, msSince(start))

	cat := &replayCatalog{ex: ex, g: g, resolved: map[string]*dataset.Table{}}
	compile := func() (*sqlengine.SelectStmt, error) {
		sql, err := ex.CompileSQL(g, target)
		if err != nil {
			return nil, err
		}
		return sqlengine.Parse(sql)
	}
	// The first execution resolves the base tables; the timed one runs on
	// the resolved catalog.
	stmt, err := compile()
	if err != nil {
		return err
	}
	if _, err := sqlengine.ExecStmtOptions(cat, stmt, sqlengine.Options{}); err != nil {
		return err
	}
	start = time.Now()
	if stmt, err = compile(); err != nil {
		return err
	}
	out, err := sqlengine.ExecStmtOptions(cat, stmt, sqlengine.Options{})
	if err != nil {
		return err
	}
	rp.exec = append(rp.exec, msSince(start))

	if stmt, err = compile(); err != nil {
		return err
	}
	alloc0 := readRuntime()[0]
	start = time.Now()
	rs, err := sqlengine.ExecStreamStmt(cat, stmt, sqlengine.StreamOptions{MaxBufferedRows: r.Budget, Parallelism: -1})
	if err != nil {
		return err
	}
	first := true
	streamed, err := rs.Drain(func(*dataset.Table) error {
		if first {
			rp.firstChunk = append(rp.firstChunk, msSince(start))
			first = false
		}
		return nil
	})
	secs := time.Since(start).Seconds()
	rs.Close()
	if err != nil {
		return err
	}
	rp.drainAlloc += readRuntime()[0] - alloc0
	rp.drainRows += float64(streamed.NumRows())
	rp.drainSecs += secs
	rp.streamed++
	if rs.FellBack() {
		rp.fellBack++
	}
	if pb := float64(rs.PeakBufferedRows()); pb > rp.peakBuffered {
		rp.peakBuffered = pb
	}

	start = time.Now()
	if r.Stream {
		for from := 0; from < out.NumRows(); from += 1024 {
			to := min(from+1024, out.NumRows())
			if _, err := json.Marshal(wire.RowChunk{Offset: from, Rows: wire.EncodeRows(out, from, to)}); err != nil {
				return err
			}
		}
	} else if _, err := json.Marshal(wire.EncodeResult(&skills.Result{Table: out}, r.MaxRows)); err != nil {
		return err
	}
	rp.encode = append(rp.encode, msSince(start))
	return nil
}
