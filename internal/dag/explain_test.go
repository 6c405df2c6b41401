package dag

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/plan"
	"datachat/internal/skills"
)

var updateGolden = flag.Bool("update", false, "rewrite EXPLAIN golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output diverged from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// The ingest→filter→join→group-by shape of a typical session: the filter
// chain on one side consolidates, the join and grouping ride on top.
func TestExplainGoldenJoinGroupBy(t *testing.T) {
	ctx := newCtx(t)
	ctx.Files["sales.csv"] = "id,amount\n1,10\n2,20\n"
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "LoadData", Inputs: nil,
		Args: skills.Args{"source": "sales.csv"}, Output: "sales"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 2"}, Output: "big"})
	g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"big"},
		Args: skills.Args{"columns": []string{"id", "v", "cat"}}, Output: "slim"})
	g.Add(skills.Invocation{Skill: "JoinDatasets", Inputs: []string{"slim", "sales"},
		Args: skills.Args{"on": "slim.id = sales.id"}, Output: "joined"})
	last := g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"joined"},
		Args: skills.Args{"aggregates": []string{"count of id as n", "sum of v as total"},
			"for_each": []string{"cat"}}, Output: "report"})
	e, err := ex.Explain(g, last)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_join_groupby", e.String())
}

// A replayed recipe with steps the target does not need: slicing prunes them
// and fusion folds the adjacent filters, like Figure 5's minimal recipe.
func TestExplainGoldenSlicedRecipe(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 1"}, Output: "f1"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"f1"},
		Args: skills.Args{"condition": "v < 9"}, Output: "f2"})
	g.Add(skills.Invocation{Skill: "DescribeDataset", Inputs: []string{"f1"}, Output: "profile"})
	g.Add(skills.Invocation{Skill: "PlotChart", Inputs: []string{"f1"},
		Args: skills.Args{"kind": "bar", "x": "cat", "y": "v"}, Output: "chart"})
	target := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"f2"},
		Args: skills.Args{"count": 10}, Output: "top"})
	e, err := ex.Explain(g, target)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_sliced_recipe", e.String())
}

// A cloud scan whose sole consumer's projection is pushed into the scan —
// the plan the degraded/fault-injected LoadTable path executes.
func TestExplainGoldenScanPushdown(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable", Inputs: nil,
		Args: skills.Args{"database": "warehouse", "table": "orders"}, Output: "orders"})
	g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"orders"},
		Args: skills.Args{"columns": []string{"id", "total"}}, Output: "slim"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"slim"},
		Args: skills.Args{"count": 20}, Output: "preview"})
	e, err := ex.Explain(g, last)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_scan_pushdown", e.String())
}

// Explain must round-trip through its JSON encoding unchanged.
func TestExplainJSONRoundTrip(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 2"}, Output: "f"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"f"},
		Args: skills.Args{"count": 3}, Output: "top"})
	e, err := ex.Explain(g, last)
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := plan.DecodeExplain(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, back) {
		t.Errorf("round trip changed the report:\nbefore: %+v\nafter:  %+v", e, back)
	}
	if back.String() != e.String() {
		t.Error("round trip changed the text rendering")
	}
}

// Explain must not execute anything or touch the cache.
func TestExplainHasNoSideEffects(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 2"}, Output: "f"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"f"},
		Args: skills.Args{"count": 3}, Output: "top"})
	if _, err := ex.Run(g, last); err != nil {
		t.Fatal(err)
	}
	statsBefore, cacheBefore := ex.Stats(), ex.CacheStats()
	e, err := ex.Explain(g, last)
	if err != nil {
		t.Fatal(err)
	}
	// The second compilation sees the first run's cached tail.
	hits := 0
	for _, n := range e.Nodes {
		if n.Cached {
			hits++
		}
	}
	if hits == 0 {
		t.Error("Explain after a run should report the cached tail")
	}
	if got := ex.Stats(); got != statsBefore {
		t.Errorf("Explain changed executor stats: %+v -> %+v", statsBefore, got)
	}
	if got := ex.CacheStats(); got != cacheBefore {
		t.Errorf("Explain changed cache stats: %+v -> %+v", cacheBefore, got)
	}
}

// A connected warehouse gives the planner catalog stats: every node carries
// non-zero cost columns and each pass records its estimated-scan delta.
func TestExplainGoldenCostedScan(t *testing.T) {
	ctx := newCtx(t)
	ctx.Cloud["wh"] = costDB(t, 4000)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable", Inputs: nil,
		Args: skills.Args{"database": "wh", "table": "orders"}, Output: "orders"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"orders"},
		Args: skills.Args{"condition": "amount > 100"}, Output: "big"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"big"},
		Args: skills.Args{"count": 25}, Output: "preview"})
	e, err := ex.Explain(g, last)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_costed_scan", e.String())
}

// The same scan under a forcing budget: sample-substitute fires, the node is
// rewritten to a SampleTable flagged [substituted], and the pass line shows
// the estimated-scan drop.
func TestExplainGoldenBudgetedSample(t *testing.T) {
	ctx := newCtx(t)
	ctx.Cloud["wh"] = costDB(t, 4000)
	ex := NewExecutor(reg, ctx)
	ex.Options.CostBudgetBytes = 1024
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable", Inputs: nil,
		Args: skills.Args{"database": "wh", "table": "orders"}, Output: "orders"})
	last := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"orders"},
		Args: skills.Args{"condition": "amount > 100"}, Output: "big"})
	e, err := ex.Explain(g, last)
	if err != nil {
		t.Fatal(err)
	}
	sub := 0
	for _, n := range e.Nodes {
		if n.Substituted {
			sub++
		}
	}
	if sub != 1 {
		t.Fatalf("want exactly 1 substituted node, got %d", sub)
	}
	checkGolden(t, "explain_budgeted_sample", e.String())

	// The costed report must survive its JSON encoding unchanged, cost
	// annotations and substitution flags included.
	data, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := plan.DecodeExplain(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, back) {
		t.Errorf("round trip changed the costed report:\nbefore: %+v\nafter:  %+v", e, back)
	}
	if back.String() != e.String() {
		t.Error("round trip changed the costed text rendering")
	}
}

// A scan the pushdown pass filtered must not be cached under the key of the
// unfiltered scan: two fresh executors sharing one cache each run
// LoadTable → KeepRows with a different range, and the second must see its
// own range, not the first one's filtered rows.
func TestPushdownScanNotCachedUnderUnfilteredKey(t *testing.T) {
	ctx := newCtx(t)
	ctx.Cloud["wh"] = costDB(t, 4000)
	cache := NewCache(DefaultCacheCapacity)
	for _, tc := range []struct {
		cond string
		want int
	}{
		{"amount >= 100 AND amount < 200", 800},
		{"amount >= 300 AND amount < 450", 1200},
	} {
		ex := NewExecutor(reg, ctx)
		ex.SetCache(cache)
		g := NewGraph()
		g.Add(skills.Invocation{Skill: "LoadTable", Inputs: nil,
			Args: skills.Args{"database": "wh", "table": "orders"}, Output: "orders"})
		last := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"orders"},
			Args: skills.Args{"condition": tc.cond}, Output: "kept"})
		res, err := ex.Run(g, last)
		if err != nil {
			t.Fatalf("%s: %v", tc.cond, err)
		}
		if got := res.Table.NumRows(); got != tc.want {
			t.Fatalf("%s: %d rows, want %d", tc.cond, got, tc.want)
		}
	}
}

// costDB builds a small warehouse whose catalog stats seed the cost model.
func costDB(t *testing.T, rows int) *cloud.Database {
	t.Helper()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 256)
	ids := make([]int64, rows)
	amounts := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		amounts[i] = float64(i % 500)
	}
	if err := db.CreateTable(dataset.MustNewTable("orders",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("amount", amounts, nil),
	)); err != nil {
		t.Fatal(err)
	}
	return db
}
