package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/sqlengine"
	"datachat/internal/wire"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// streamKeys renders the first n requests of a client's stream.
func streamKeys(workload string, seed int64, client, n int) []string {
	s := newStream(workload, seed, client)
	out := make([]string, n)
	for i := range out {
		r := s.Next()
		out[i] = fmt.Sprint(r.key(), r.Form, r.Budget, r.Current)
	}
	return out
}

func TestSeededDeterminism(t *testing.T) {
	for _, w := range []string{"explore", "export", "dashboard"} {
		a, b := streamKeys(w, 7, 0, 300), streamKeys(w, 7, 0, 300)
		c := streamKeys(w, 8, 0, 300)
		same, differ := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differ = differ || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: the same seed gave different request streams", w)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w)
		}
		d1, d2 := genDataScaled(w, 7, 100), genDataScaled(w, 7, 100)
		for name, f := range d1.tables {
			if f.csv() != d2.tables[name].csv() {
				t.Errorf("%s: table %s differs between generations with one seed", w, name)
			}
		}
	}
}

func TestMixIsFixedPerDeck(t *testing.T) {
	s := newStream("export", 3, 0)
	counts := map[string]int{}
	spilled := 0
	for i := 0; i < 120; i++ {
		r := s.Next()
		counts[r.Tmpl]++
		if r.Budget > 0 {
			spilled++
		}
	}
	if counts["x.filter"] != 40 || counts["x.project"] != 40 || counts["x.group"] != 40 || spilled != 30 {
		t.Errorf("export mix over 10 decks = %v with %d spilled, want 40/40/40 and 30", counts, spilled)
	}
}

// TestWriteReadCoupling drives the coupling through two windows, as the
// traced run's slices do: one cycle per writeEvery reads, none before its
// reads completed, and the second window resumes rather than catching up.
func TestWriteReadCoupling(t *testing.T) {
	var reads, cycles atomic.Int64
	var violations atomic.Int64
	next := int64(1)
	window := func(n int) {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			coupled(ctx, reads.Load, writeEvery, &next, func() {
				k := cycles.Add(1)
				if reads.Load() < k*writeEvery {
					violations.Add(1)
				}
			})
		}()
		for i := 0; i < n; i++ {
			reads.Add(1)
			for reads.Load()/writeEvery > cycles.Load() {
				// Wait for the cycle this read unlocked, as a slow writer
				// would make readers race ahead otherwise.
			}
		}
		cancel()
		wg.Wait()
	}
	window(10*writeEvery + writeEvery/2)
	if got := cycles.Load(); got != 10 {
		t.Errorf("%d reads drove %d write cycles, want 10", reads.Load(), got)
	}
	window(10 * writeEvery)
	if got := cycles.Load(); got != 20 {
		t.Errorf("%d reads over two windows drove %d write cycles, want 20", reads.Load(), got)
	}
	if violations.Load() > 0 {
		t.Errorf("%d cycles started before their %d reads completed", violations.Load(), writeEvery)
	}
}

func TestDigestCanonical(t *testing.T) {
	rows := [][]any{{int64(1), "a", nil}, {int64(2), "b", int64(-3)}, {int64(3), "c", int64(4)}}
	var a, b, c digest
	for _, r := range rows {
		a.add(r)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		b.add(rows[i])
	}
	// The same rows as the client decodes them from the wire.
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var decoded [][]any
	if err := wire.DecodeJSON(bytes.NewReader(data), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, r := range decoded {
		c.add(r)
	}
	if a != b {
		t.Error("digest depends on row order")
	}
	if a != c {
		t.Error("digest differs between oracle cells and wire-decoded cells")
	}
	var d digest
	d.add([]any{int64(1), "a", nil})
	d.add([]any{int64(2), "b", int64(-3)})
	d.add([]any{int64(3), "c", int64(5)})
	if a == d {
		t.Error("digest missed a changed cell")
	}
}

// sqlOutcome runs a hand-written reference query with the SQL engine on the
// generated tables, independently of the planner and the server.
func sqlOutcome(t *testing.T, tables map[string]*frame, query string, page int) outcome {
	t.Helper()
	cat := map[string]*dataset.Table{}
	for name, f := range tables {
		tb, err := dataset.ReadCSVString(name, f.csv())
		if err != nil {
			t.Fatal(err)
		}
		cat[name] = tb
	}
	out, err := sqlengine.Exec(sqlengine.NewMapCatalog(cat), query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	o := outcome{Cols: out.ColumnNames(), Total: out.NumRows()}
	n := out.NumRows()
	if page > 0 && n > page {
		n = page
	}
	for _, row := range wire.EncodeRows(out, 0, n) {
		o.D.add(row)
	}
	return o
}

// TestOracleMatchesSQL checks every oracle template on a tiny dataset
// against the SQL engine running an equivalent hand-written query.
func TestOracleMatchesSQL(t *testing.T) {
	ex := genDataScaled("explore", 11, 100)
	xp := genDataScaled("export", 11, 20)
	named := func(d *benchData) map[string]*frame {
		m := map[string]*frame{}
		for _, f := range d.files {
			m[f.name] = f
		}
		for n, f := range d.tables {
			m[n] = f
		}
		return m
	}
	cases := []struct {
		d     *benchData
		r     *request
		query string
		page  int
	}{
		{ex, &request{Tmpl: "e.filter", Args: []int64{4000}}, "SELECT * FROM events WHERE v >= 4000 AND v < 4100", explorePage},
		{ex, &request{Tmpl: "e.newcol", Args: []int64{0, 7}}, "SELECT *, v * 7 + w AS x FROM events WHERE v >= 0 AND v < 100", explorePage},
		{ex, &request{Tmpl: "e.agg", Args: []int64{100, 3}}, "SELECT cat, SUM(v * 3 + w) AS sx, COUNT(*) AS n FROM events WHERE v >= 100 AND v < 200 GROUP BY cat", 0},
		{ex, &request{Tmpl: "e.chain", Args: []int64{2000, 60, 9}}, "SELECT grp, SUM(v * 9 + w) AS sx, COUNT(*) AS n FROM events WHERE v >= 2000 AND v < 5000 AND w < 60 GROUP BY grp ORDER BY sx DESC, grp DESC LIMIT 20", 0},
		{ex, &request{Tmpl: "e.join", Args: []int64{3, 7000}}, "SELECT region, SUM(v) AS sv, COUNT(*) AS n FROM events JOIN dims ON grp = gid WHERE cat = 'c3' AND v < 7000 GROUP BY region", 0},
		{ex, &request{Tmpl: "e.wh", Args: []int64{30000}}, "SELECT status, COUNT(*) AS n, SUM(amount) AS sa FROM orders WHERE amount >= 30000 AND amount < 50000 GROUP BY status", 0},
		{xp, &request{Tmpl: "x.filter", Args: []int64{100000}}, fmt.Sprintf("SELECT * FROM big WHERE b >= 100000 AND b < %d", 100000+exportFilter), 0},
		{xp, &request{Tmpl: "x.project", Args: []int64{500000}}, fmt.Sprintf("SELECT id, k, s, a FROM big WHERE b >= 500000 AND b < %d", 500000+exportFilter), 0},
		{xp, &request{Tmpl: "x.group", Args: []int64{300}}, fmt.Sprintf("SELECT g, COUNT(*) AS n, SUM(b) AS sb FROM big WHERE a >= 300 AND a < %d GROUP BY g", 300+exportGroupA), 0},
		{xp, &request{Tmpl: "d.gel", Args: []int64{2, 5, 700}}, "SELECT * FROM d2 WHERE host = 'h5' AND val >= 700", 0},
		{xp, &request{Tmpl: "d.py", Args: []int64{1, 250, 300}}, "SELECT host, SUM(val) AS sv, COUNT(*) AS n FROM d1 WHERE lat < 250 AND val >= 300 GROUP BY host", 0},
	}
	for _, c := range cases {
		want := sqlOutcome(t, named(c.d), c.query, c.page)
		got, err := c.d.expect(c.r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want.D.Rows == 0 {
			t.Errorf("%s: reference query returned no rows; the case checks nothing", c.r.Tmpl)
		}
		if !got.equal(want) {
			t.Errorf("%s: oracle %s, SQL %s", c.r.Tmpl, got, want)
		}
	}

	// The board tile: the refresh recipe over versions (0, 2, 1, 0).
	vers := [dashTables]int{0, 2, 1, 0}
	var board outcome
	for i, v := range vers {
		f := xp.dashTable(i, v)
		o := sqlOutcome(t, map[string]*frame{"d": f}, "SELECT host, COUNT(*) AS n, SUM(lat) AS sl FROM d WHERE val >= 500 GROUP BY host", 0)
		board.Cols, board.Total = o.Cols, board.Total+o.Total
		board.D.Rows += o.D.Rows
		board.D.Sum += o.D.Sum
	}
	if got := xp.expectBoard(vers); !got.equal(board) {
		t.Errorf("board: oracle %s, SQL %s", got, board)
	}
	if xp.dashTable(1, 2).csv() == xp.dashTable(1, 3).csv() {
		t.Error("successive board table versions are identical; refreshes would change nothing")
	}
}

func TestOracleRejectsUnknownTemplate(t *testing.T) {
	d := genDataScaled("dashboard", 1, 100)
	if _, err := d.expect(&request{Tmpl: "nope"}, 0); err == nil {
		t.Error("expect accepted an unknown template")
	}
}

// TestTraceOverhead checks the overhead figures on synthetic slices: traced
// slices 10% slower per request, each slice one second long.
func TestTraceOverhead(t *testing.T) {
	t0 := time.Unix(0, 0)
	slice := func(ms float64, n int) *window {
		w := &window{start: t0, end: t0.Add(time.Second)}
		for i := 0; i < n; i++ {
			w.samples = append(w.samples, sample{Kind: "read", Start: t0, End: t0.Add(time.Duration(ms * float64(time.Millisecond)))})
		}
		return w
	}
	order := []bool{false, true, true, false}
	wins := []*window{slice(10, 100), slice(11, 90), slice(11, 90), slice(10, 100)}
	p50, rps := traceOverhead(wins, order)
	if math.Abs(p50-0.1) > 1e-9 || math.Abs(rps-(100.0/90-1)) > 1e-9 {
		t.Errorf("traceOverhead = %v, %v; want 0.1, %v", p50, rps, 100.0/90-1)
	}
}
