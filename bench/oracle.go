package main

import (
	"fmt"
	"sort"
)

// expect computes, from the generated data alone, the outcome a request
// must produce. ver is the version of the dashboard table a read saw; other
// templates ignore it.
func (d *benchData) expect(r *request, ver int) (outcome, error) {
	a := r.Args
	switch r.Tmpl {
	case "e.filter", "e.newcol", "e.agg":
		ev := d.files["events.csv"]
		lo, hi := a[0], a[0]+100
		vs, ws := ev.ints["v"], ev.ints["w"]
		keep := func(i int) bool { return vs[i] >= lo && vs[i] < hi }
		switch r.Tmpl {
		case "e.filter":
			out := newRowsOut(ev.cols, explorePage)
			for i := 0; i < ev.nrows; i++ {
				if keep(i) {
					out.add(ev.row(i, ev.cols))
				}
			}
			return out.out, nil
		case "e.newcol":
			out := newRowsOut(append(append([]string{}, ev.cols...), "x"), explorePage)
			for i := 0; i < ev.nrows; i++ {
				if keep(i) {
					out.add(append(ev.row(i, ev.cols), vs[i]*a[1]+ws[i]))
				}
			}
			return out.out, nil
		default:
			g, cats := newGroupBy(), ev.strs["cat"]
			for i := 0; i < ev.nrows; i++ {
				if keep(i) {
					b := g.at(cats[i], 2)
					b.aggs[0] += vs[i]*a[1] + ws[i]
					b.aggs[1]++
				}
			}
			return groupsOut([]string{"cat", "sx", "n"}, g.sorted(keyLess)), nil
		}
	case "e.chain":
		ev := d.files["events.csv"]
		g := newGroupBy()
		vs, ws, gs := ev.ints["v"], ev.ints["w"], ev.ints["grp"]
		for i := 0; i < ev.nrows; i++ {
			if vs[i] >= a[0] && vs[i] < a[0]+3_000 && ws[i] < a[1] {
				b := g.at(gs[i], 2)
				b.aggs[0] += vs[i]*a[2] + ws[i]
				b.aggs[1]++
			}
		}
		top := g.sorted(func(x, y *group) bool {
			if x.aggs[0] != y.aggs[0] {
				return x.aggs[0] > y.aggs[0]
			}
			return x.key.(int64) > y.key.(int64)
		})
		if len(top) > 20 {
			top = top[:20]
		}
		return groupsOut([]string{"grp", "sx", "n"}, top), nil
	case "e.join":
		ev, dm := d.files["events.csv"], d.files["dims.csv"]
		cat := fmt.Sprintf("c%d", a[0])
		g := newGroupBy()
		cats, vs, gs, regions := ev.strs["cat"], ev.ints["v"], ev.ints["grp"], dm.strs["region"]
		for i := 0; i < ev.nrows; i++ {
			if cats[i] == cat && vs[i] < a[1] {
				// gid is the row index of dims, so the join is a lookup.
				b := g.at(regions[gs[i]], 2)
				b.aggs[0] += vs[i]
				b.aggs[1]++
			}
		}
		return groupsOut([]string{"region", "sv", "n"}, g.sorted(keyLess)), nil
	case "e.wh":
		or := d.tables["orders"]
		g := newGroupBy()
		amounts, statuses := or.ints["amount"], or.strs["status"]
		for i := 0; i < or.nrows; i++ {
			if am := amounts[i]; am >= a[0] && am < a[0]+20_000 {
				b := g.at(statuses[i], 2)
				b.aggs[0]++
				b.aggs[1] += am
			}
		}
		return groupsOut([]string{"status", "n", "sa"}, g.sorted(keyLess)), nil
	case "x.filter", "x.project":
		bg := d.tables["big"]
		cols := bg.cols
		if r.Tmpl == "x.project" {
			cols = []string{"id", "k", "s", "a"}
		}
		out := newRowsOut(cols, 0)
		bs := bg.ints["b"]
		for i := 0; i < bg.nrows; i++ {
			if bs[i] >= a[0] && bs[i] < a[0]+exportFilter {
				out.add(bg.row(i, cols))
			}
		}
		return out.out, nil
	case "x.group":
		bg := d.tables["big"]
		g := newGroupBy()
		as, bs, gs := bg.ints["a"], bg.ints["b"], bg.ints["g"]
		for i := 0; i < bg.nrows; i++ {
			if as[i] >= a[0] && as[i] < a[0]+exportGroupA {
				b := g.at(gs[i], 2)
				b.aggs[0]++
				b.aggs[1] += bs[i]
			}
		}
		return groupsOut([]string{"g", "n", "sb"}, g.sorted(keyLess)), nil
	case "d.gel":
		f := d.dashTable(int(a[0]), ver)
		host := fmt.Sprintf("h%d", a[1])
		out := newRowsOut(f.cols, 0)
		hosts, vals := f.strs["host"], f.ints["val"]
		for i := 0; i < f.nrows; i++ {
			if hosts[i] == host && vals[i] >= a[2] {
				out.add(f.row(i, f.cols))
			}
		}
		return out.out, nil
	case "d.py":
		f := d.dashTable(int(a[0]), ver)
		g := newGroupBy()
		hosts, vals, lats := f.strs["host"], f.ints["val"], f.ints["lat"]
		for i := 0; i < f.nrows; i++ {
			if lats[i] < a[1] && vals[i] >= a[2] {
				b := g.at(hosts[i], 2)
				b.aggs[0] += vals[i]
				b.aggs[1]++
			}
		}
		return groupsOut([]string{"host", "sv", "n"}, g.sorted(keyLess)), nil
	}
	return outcome{}, fmt.Errorf("no oracle for template %q", r.Tmpl)
}

// expectBoard is the board tile the refresh recipe publishes when the
// board tables are at versions vers.
func (d *benchData) expectBoard(vers [dashTables]int) outcome {
	out := newRowsOut([]string{"host", "n", "sl"}, 0)
	for t := 0; t < dashTables; t++ {
		f := d.dashTable(t, vers[t])
		g := newGroupBy()
		hosts, vals, lats := f.strs["host"], f.ints["val"], f.ints["lat"]
		for i := 0; i < f.nrows; i++ {
			if vals[i] >= 500 {
				b := g.at(hosts[i], 2)
				b.aggs[0]++
				b.aggs[1] += lats[i]
			}
		}
		for _, b := range g.sorted(keyLess) {
			out.add([]any{b.key, b.aggs[0], b.aggs[1]})
		}
	}
	return out.out
}

func groupsOut(cols []string, gs []*group) outcome {
	out := newRowsOut(cols, 0)
	for _, g := range gs {
		row := make([]any, 0, len(g.aggs)+1)
		row = append(row, g.key)
		for _, v := range g.aggs {
			row = append(row, v)
		}
		out.add(row)
	}
	return out.out
}

// oracle memoizes expected outcomes: many requests share a template and
// constants (every dashboard read does).
type oracle struct {
	d    *benchData
	memo map[string]outcome
}

func (o *oracle) get(r *request, ver int) (outcome, error) {
	k := fmt.Sprint(r.key(), "@", ver)
	if e, ok := o.memo[k]; ok {
		return e, nil
	}
	e, err := o.d.expect(r, ver)
	if err != nil {
		return e, err
	}
	o.memo[k] = e
	return e, nil
}

// sortedKeys is a helper for deterministic iteration in reports.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
