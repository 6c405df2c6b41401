package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/wire"
)

// Sizes of the generated inputs. They are fixed, not derived from the run
// length, so every run of one workload does the same work per request.
const (
	eventsRows   = 200_000 // explore: registered CSV
	dimsRows     = 1_000   // explore: dimension file joined on grp
	ordersRows   = 100_000 // explore: warehouse table
	bigRows      = 200_000 // export: warehouse table
	bigGroups    = 10_000  // export: distinct g values
	dashRows     = 20_000  // every workload: each of the 4 board tables
	dashTables   = 4
	dashQueries  = 32
	dashKeep     = 16     // dashboard table versions the generator keeps
	sessionSpan  = 40     // requests before a client retires its session
	writeEvery   = 20     // dashboard: completed reads per write cycle
	explorePage  = 100    // rows inlined for paged explore results
	fullPage     = 10_000 // rows inlined for whole results
	spillBudget  = 1_500  // export: max_buffered_rows on spilled group-bys
	exportFilter = 20_000 // export: width of the b range a filter keeps
	exportGroupA = 15     // export: width of the a range a group-by keeps
)

// request is one step of a client's seeded request stream. Invs is the
// canonical program; Form says how it travels (one GEL sentence, a Python
// script, or a recipe program). Tmpl and Args identify the oracle.
type request struct {
	Tmpl    string
	Args    []int64
	Form    string // "gel", "python" or "program"
	Invs    []skills.Invocation
	Current string // GEL only; "@prev" means the previous GEL result
	Stream  bool
	MaxRows int
	Budget  int // max_buffered_rows (0 = server default)
	Table   int // dashboard table read, -1 otherwise
}

func (r *request) key() string { return fmt.Sprint(r.Tmpl, r.Args) }

// wireRequest renders the request in its form.
func (r *request) wireRequest(reg *skills.Registry, current string) (wire.RunRequest, error) {
	req := wire.RunRequest{User: "analyst", MaxRows: r.MaxRows, MaxBufferedRows: r.Budget}
	switch r.Form {
	case "gel":
		line, err := reg.RenderGEL(r.Invs[0])
		if err != nil {
			return req, err
		}
		req.GEL, req.Current = line, current
	case "python":
		lines := make([]string, len(r.Invs))
		for i, inv := range r.Invs {
			code, err := reg.RenderPython(inv)
			if err != nil {
				return req, err
			}
			lines[i] = code
		}
		req.Python = strings.Join(lines, "\n")
	default:
		for _, inv := range r.Invs {
			req.Program = append(req.Program, recipe.Step{Skill: inv.Skill, Inputs: inv.Inputs, Output: inv.Output, Args: inv.Args})
		}
	}
	return req, nil
}

func inv(skill string, inputs []string, out string, args skills.Args) skills.Invocation {
	return skills.Invocation{Skill: skill, Inputs: inputs, Output: out, Args: args}
}

func in(names ...string) []string { return names }

// --- Generated data ---

// benchData is every input a workload uses, generated from the seed.
type benchData struct {
	seed   int64
	files  map[string]*frame // registered CSV files
	tables map[string]*frame // warehouse tables loaded at set-up

	mu       sync.Mutex
	dash     map[[2]int]*frame // recently used dashboard table versions
	dashLRU  [][2]int          // keys of dash, least recently used first
	dashRows int
}

func genData(workload string, seed int64) *benchData { return genDataScaled(workload, seed, 1) }

// genDataScaled divides every table's row count by div; the self-tests use
// it to check the oracles on tiny inputs.
func genDataScaled(workload string, seed int64, div int) *benchData {
	eventsRows, ordersRows, bigRows := eventsRows/div, ordersRows/div, bigRows/div
	d := &benchData{seed: seed, files: map[string]*frame{}, tables: map[string]*frame{}, dash: map[[2]int]*frame{}, dashRows: dashRows / div}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "explore":
		ev := newFrame("events", eventsRows)
		ev.addInt("id", seq(eventsRows))
		ev.addInt("grp", randInts(rng, eventsRows, 0, dimsRows))
		ev.addStr("cat", randLabels(rng, eventsRows, "c", 8))
		ev.addInt("v", randInts(rng, eventsRows, 0, 10_000))
		ev.addInt("w", randInts(rng, eventsRows, 0, 100))
		d.files["events.csv"] = ev
		dm := newFrame("dims", dimsRows)
		dm.addInt("gid", seq(dimsRows))
		dm.addStr("region", randLabels(rng, dimsRows, "r", 10))
		dm.addInt("weight", randInts(rng, dimsRows, 1, 100))
		d.files["dims.csv"] = dm
		or := newFrame("orders", ordersRows)
		or.addInt("oid", seq(ordersRows))
		or.addInt("ogrp", randInts(rng, ordersRows, 0, dimsRows))
		or.addStr("status", randLabels(rng, ordersRows, "s", 5))
		or.addInt("amount", randInts(rng, ordersRows, 0, 100_000))
		d.tables["orders"] = or
	case "export":
		bg := newFrame("big", bigRows)
		bg.addInt("id", seq(bigRows))
		bg.addInt("k", randInts(rng, bigRows, 0, 100_000))
		bg.addInt("g", randInts(rng, bigRows, 0, bigGroups))
		bg.addStr("s", randLabels(rng, bigRows, "s", 16))
		bg.addInt("a", randInts(rng, bigRows, 0, 1000))
		bg.addInt("b", randInts(rng, bigRows, 0, 1_000_000))
		d.tables["big"] = bg
	}
	for t := 0; t < dashTables; t++ {
		d.tables[dashName(t)] = d.dashTable(t, 0)
	}
	return d
}

func dashName(t int) string { return fmt.Sprintf("d%d", t) }

// dashTable returns version v of dashboard table t. Versions are a pure
// function of (seed, t, v), so the oracle can rebuild any version a read
// might have seen.
func (d *benchData) dashTable(t, v int) *frame {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := [2]int{t, v}
	for i, k := range d.dashLRU {
		if k == key {
			d.dashLRU = append(append(d.dashLRU[:i:i], d.dashLRU[i+1:]...), key)
			return d.dash[key]
		}
	}
	rng := rand.New(rand.NewSource(d.seed*7919 + int64(t)*104729 + int64(v)*1299709))
	n := d.dashRows
	f := newFrame(dashName(t), n)
	f.addInt("id", seq(n))
	f.addStr("host", randLabels(rng, n, "h", 16))
	f.addInt("val", randInts(rng, n, 0, 1000))
	f.addInt("lat", randInts(rng, n, 0, 500))
	// Keep only a few versions: the writer and the checks walk versions in
	// order, and a run makes hundreds of them.
	if len(d.dashLRU) == dashKeep {
		delete(d.dash, d.dashLRU[0])
		d.dashLRU = d.dashLRU[1:]
	}
	d.dash[key] = f
	d.dashLRU = append(d.dashLRU, key)
	return f
}

// --- Request streams ---

// requestStream yields one client's seeded requests. The same seed and
// client index always give the same sequence.
type requestStream struct {
	rng     *rand.Rand
	deck    []int // shuffled template slots, refilled when empty
	next    func(*requestStream) *request
	pending []*request // remaining steps of a multi-request GEL episode
	queries []*request // dashboard: the fixed query set
	zipf    *rand.Zipf
}

func newStream(workload string, seed int64, client int) *requestStream {
	s := &requestStream{rng: rand.New(rand.NewSource(seed*1000003 + int64(client)*7 + 1))}
	switch workload {
	case "explore":
		s.next = nextExplore
	case "export":
		s.next = nextExport
	case "dashboard":
		s.queries = dashboardQueries(seed)
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, dashQueries-1)
		s.next = func(s *requestStream) *request { return s.queries[s.zipf.Uint64()] }
	}
	return s
}

func (s *requestStream) Next() *request {
	if len(s.pending) > 0 {
		r := s.pending[0]
		s.pending = s.pending[1:]
		return r
	}
	return s.next(s)
}

func (s *requestStream) between(lo, hi int64) int64 { return lo + s.rng.Int63n(hi-lo) }

// draw deals the next template slot from a seeded, shuffled deck holding
// each template counts[i] times, so every run sends the same mix in a
// different order.
func (s *requestStream) draw(counts []int) int {
	if len(s.deck) == 0 {
		for t, n := range counts {
			for i := 0; i < n; i++ {
				s.deck = append(s.deck, t)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	t := s.deck[0]
	s.deck = s.deck[1:]
	return t
}

// nextExplore draws one analysis step. Constants come from spaces of
// thousands to millions of values, far beyond the 256-entry sub-DAG cache.
func nextExplore(s *requestStream) *request {
	// Per deck of 10 turns: 2 GEL episodes (6 requests), 3 chains, 2 joins,
	// 3 warehouse aggregations.
	switch s.draw([]int{2, 3, 2, 3}) {
	case 0:
		// A three-sentence GEL episode: filter, derive, aggregate, each
		// sentence acting on the previous result.
		a, c := s.between(0, 9_900), s.between(2, 10_000)
		cond := fmt.Sprintf("v >= %d AND v < %d", a, a+100)
		s.pending = []*request{
			{Tmpl: "e.newcol", Args: []int64{a, c}, Form: "gel", Current: "@prev", MaxRows: explorePage, Table: -1,
				Invs: []skills.Invocation{inv("NewColumn", nil, "", skills.Args{"name": "x", "formula": fmt.Sprintf("v * %d + w", c)})}},
			{Tmpl: "e.agg", Args: []int64{a, c}, Form: "gel", Current: "@prev", MaxRows: fullPage, Table: -1,
				Invs: []skills.Invocation{inv("Compute", nil, "", skills.Args{"aggregates": []string{"sum of x as sx", "count of records as n"}, "for_each": []string{"cat"}})}},
		}
		return &request{Tmpl: "e.filter", Args: []int64{a}, Form: "gel", Current: "events", MaxRows: explorePage, Table: -1,
			Invs: []skills.Invocation{inv("KeepRows", nil, "", skills.Args{"condition": cond})}}
	case 1:
		a, b, c := s.between(0, 7_000), s.between(10, 100), s.between(2, 1_000)
		form := "python"
		if s.rng.Intn(2) == 0 {
			form = "program"
		}
		return &request{Tmpl: "e.chain", Args: []int64{a, b, c}, Form: form, MaxRows: fullPage, Table: -1, Invs: []skills.Invocation{
			inv("KeepRows", in("events"), "ec_a", skills.Args{"condition": fmt.Sprintf("v >= %d AND v < %d AND w < %d", a, a+3_000, b)}),
			inv("NewColumn", in("ec_a"), "ec_b", skills.Args{"name": "x", "formula": fmt.Sprintf("v * %d + w", c)}),
			inv("Compute", in("ec_b"), "ec_c", skills.Args{"aggregates": []string{"sum of x as sx", "count of records as n"}, "for_each": []string{"grp"}}),
			inv("SortRows", in("ec_c"), "ec_d", skills.Args{"columns": []string{"sx", "grp"}, "descending": true}),
			inv("LimitRows", in("ec_d"), "ec_e", skills.Args{"count": 20}),
		}}
	case 2:
		k, a := s.between(0, 8), s.between(1_000, 10_000)
		form := "program"
		if s.rng.Intn(2) == 0 {
			form = "python"
		}
		return &request{Tmpl: "e.join", Args: []int64{k, a}, Form: form, MaxRows: fullPage, Table: -1, Invs: []skills.Invocation{
			inv("KeepRows", in("events"), "ej_a", skills.Args{"condition": fmt.Sprintf("cat = 'c%d' AND v < %d", k, a)}),
			inv("JoinDatasets", in("ej_a", "dims"), "ej_b", skills.Args{"on": "grp = gid"}),
			inv("Compute", in("ej_b"), "ej_c", skills.Args{"aggregates": []string{"sum of v as sv", "count of records as n"}, "for_each": []string{"region"}}),
			inv("SortRows", in("ej_c"), "ej_d", skills.Args{"columns": []string{"region"}}),
		}}
	default:
		a := s.between(0, 80_000)
		form := "python"
		if s.rng.Intn(2) == 0 {
			form = "program"
		}
		// The scan carries the filter itself. A KeepRows after a bare
		// LoadTable would be pushed into the scan after its cache key was
		// computed, and the next request with another range would read the
		// first range's rows (see README, "Known program defect").
		return &request{Tmpl: "e.wh", Args: []int64{a}, Form: form, MaxRows: fullPage, Table: -1, Invs: []skills.Invocation{
			inv("LoadTable", nil, "ew_a", skills.Args{"database": "wh", "table": "orders", "condition": fmt.Sprintf("amount >= %d AND amount < %d", a, a+20_000)}),
			inv("Compute", in("ew_a"), "ew_b", skills.Args{"aggregates": []string{"count of records as n", "sum of amount as sa"}, "for_each": []string{"status"}}),
			inv("SortRows", in("ew_b"), "ew_c", skills.Args{"columns": []string{"status"}}),
		}}
	}
}

// nextExport draws one streamed bulk request: a filter returning all
// columns of the session's loaded table (GEL), a warehouse scan with filter
// and projection (Python), or a warehouse scan with a high-cardinality
// group-by (program), three in four of them under a budget that spills.
func nextExport(s *requestStream) *request {
	// Per deck of 12: 4 GEL filters, 4 Python projections, 1 group-by and
	// 3 group-bys under a budget that spills (a quarter of all requests).
	switch slot := s.draw([]int{4, 4, 1, 3}); slot {
	case 0:
		a := s.between(0, 1_000_000-exportFilter)
		return &request{Tmpl: "x.filter", Args: []int64{a}, Form: "gel", Current: "big", Stream: true, MaxRows: 1024, Table: -1,
			Invs: []skills.Invocation{inv("KeepRows", nil, "", skills.Args{"condition": fmt.Sprintf("b >= %d AND b < %d", a, a+exportFilter)})}}
	case 1:
		a := s.between(0, 1_000_000-exportFilter)
		return &request{Tmpl: "x.project", Args: []int64{a}, Form: "python", Stream: true, MaxRows: 1024, Table: -1, Invs: []skills.Invocation{
			inv("LoadTable", nil, "xp_s", skills.Args{"database": "wh", "table": "big"}),
			inv("KeepRows", in("xp_s"), "xp_a", skills.Args{"condition": fmt.Sprintf("b >= %d AND b < %d", a, a+exportFilter)}),
			inv("KeepColumns", in("xp_a"), "xp_b", skills.Args{"columns": []string{"id", "k", "s", "a"}}),
		}}
	default:
		a := s.between(0, 1000-exportGroupA)
		budget := 0
		if slot == 3 {
			budget = spillBudget
		}
		return &request{Tmpl: "x.group", Args: []int64{a}, Form: "program", Stream: true, MaxRows: 1024, Budget: budget, Table: -1, Invs: []skills.Invocation{
			inv("LoadTable", nil, "xg_s", skills.Args{"database": "wh", "table": "big"}),
			inv("KeepRows", in("xg_s"), "xg_a", skills.Args{"condition": fmt.Sprintf("a >= %d AND a < %d", a, a+exportGroupA)}),
			inv("Compute", in("xg_a"), "xg_b", skills.Args{"aggregates": []string{"count of records as n", "sum of b as sb"}, "for_each": []string{"g"}}),
		}}
	}
}

// dashboardQueries is the fixed, seeded set of 32 dashboard reads over the
// 4 board tables: even queries are GEL filters, odd ones Python
// aggregations.
func dashboardQueries(seed int64) []*request {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	qs := make([]*request, dashQueries)
	for q := range qs {
		t := (q / 2) % dashTables
		// Constants vary the query text but hold each query's result size
		// nearly constant, so which queries the Zipf law makes hot does not
		// change how much work a read does.
		if q%2 == 0 {
			k, c := rng.Int63n(16), 700+rng.Int63n(20)
			qs[q] = &request{Tmpl: "d.gel", Args: []int64{int64(t), k, c}, Form: "gel", Current: dashName(t), MaxRows: fullPage, Table: t,
				Invs: []skills.Invocation{inv("KeepRows", nil, "", skills.Args{"condition": fmt.Sprintf("host = 'h%d' AND val >= %d", k, c)})}}
			continue
		}
		c, v := 100+rng.Int63n(10), 500+rng.Int63n(10)
		p := fmt.Sprintf("dq%d_", q)
		qs[q] = &request{Tmpl: "d.py", Args: []int64{int64(t), c, v}, Form: "python", MaxRows: fullPage, Table: t, Invs: []skills.Invocation{
			inv("KeepRows", in(dashName(t)), p+"a", skills.Args{"condition": fmt.Sprintf("lat < %d AND val >= %d", c, v)}),
			inv("Compute", in(p+"a"), p+"b", skills.Args{"aggregates": []string{"sum of val as sv", "count of records as n"}, "for_each": []string{"host"}}),
			inv("SortRows", in(p+"b"), p+"c", skills.Args{"columns": []string{"host"}}),
		}}
	}
	return qs
}

// sessionOpen is what a client runs in a fresh session before its requests:
// a program loading the datasets the stream names.
func sessionOpen(workload string) []recipe.Step {
	var steps []recipe.Step
	for _, v := range openInvocations(workload) {
		steps = append(steps, recipe.Step{Skill: v.Skill, Output: v.Output, Args: v.Args})
	}
	return steps
}

// refreshRecipe is the scheduled recipe every workload's board refresh
// replays: per board table, keep the hot rows and aggregate by host, then
// concatenate the four results. Each scan names its columns, so the
// KeepRows after it is not pushed into it (see openInvocations).
func refreshRecipe() *recipe.Recipe {
	var steps []recipe.Step
	var outs []string
	for t := 0; t < dashTables; t++ {
		n := dashName(t)
		steps = append(steps,
			recipe.Step{Skill: "LoadTable", Output: n + "_raw", Args: skills.Args{"database": "wh", "table": n, "columns": []string{"host", "val", "lat"}}},
			recipe.Step{Skill: "KeepRows", Inputs: in(n + "_raw"), Output: n + "_hot", Args: skills.Args{"condition": "val >= 500"}},
			recipe.Step{Skill: "Compute", Inputs: in(n + "_hot"), Output: n + "_agg", Args: skills.Args{"aggregates": []string{"count of records as n", "sum of lat as sl"}, "for_each": []string{"host"}}},
		)
		outs = append(outs, n+"_agg")
	}
	steps = append(steps, recipe.Step{Skill: "Concatenate", Inputs: outs, Output: "board_all"})
	return &recipe.Recipe{Name: "board-refresh", Steps: steps}
}

// scheduleRequest creates the refresh job. Its period is an hour and no
// scheduler loop runs, so it only runs when a writer asks.
func scheduleRequest() wire.ScheduleRequest {
	return wire.ScheduleRequest{Name: "refresh", User: "writer", Recipe: refreshRecipe(),
		EveryMs: time.Hour.Milliseconds(), Board: "board", Tile: "hot"}
}
