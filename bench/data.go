package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// frame is generated data held column-wise in the harness. Every column is
// either int64 or string; the oracles read frames directly, so expected
// results never go through the system under test.
type frame struct {
	name  string
	cols  []string
	ints  map[string][]int64
	strs  map[string][]string
	nrows int
}

func newFrame(name string, n int) *frame {
	return &frame{name: name, ints: map[string][]int64{}, strs: map[string][]string{}, nrows: n}
}

func (f *frame) addInt(name string, vals []int64) {
	f.cols = append(f.cols, name)
	f.ints[name] = vals
}

func (f *frame) addStr(name string, vals []string) {
	f.cols = append(f.cols, name)
	f.strs[name] = vals
}

// cell returns row i of column c as an oracle cell (int64 or string).
func (f *frame) cell(c string, i int) any {
	if v, ok := f.ints[c]; ok {
		return v[i]
	}
	return f.strs[c][i]
}

// row returns the cells of row i for the given columns.
func (f *frame) row(i int, cols []string) []any {
	out := make([]any, len(cols))
	for j, c := range cols {
		out[j] = f.cell(c, i)
	}
	return out
}

// csv renders the frame as CSV text, the form files and warehouse loads
// arrive in.
func (f *frame) csv() string {
	var b strings.Builder
	b.Grow(f.nrows * 8 * len(f.cols))
	b.WriteString(strings.Join(f.cols, ","))
	b.WriteByte('\n')
	for i := 0; i < f.nrows; i++ {
		for j, c := range f.cols {
			if j > 0 {
				b.WriteByte(',')
			}
			if v, ok := f.ints[c]; ok {
				b.WriteString(strconv.FormatInt(v[i], 10))
			} else {
				b.WriteString(f.strs[c][i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func randInts(rng *rand.Rand, n int, lo, hi int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + rng.Int63n(hi-lo)
	}
	return out
}

func randLabels(rng *rand.Rand, n int, prefix string, k int) []string {
	labels := make([]string, k)
	for i := range labels {
		labels[i] = prefix + strconv.Itoa(i)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = labels[rng.Intn(k)]
	}
	return out
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// --- Digests ---

// digest is an order-insensitive fingerprint of a row multiset: the row
// count plus the wrapping sum of per-row FNV-64a hashes over canonical cells.
type digest struct {
	Rows int
	Sum  uint64
}

func (d *digest) add(row []any) {
	// FNV-64a inline: the client folds every streamed row in the timed
	// window, so the digest must not allocate per row.
	const offset, prime = 14695981039346656037, 1099511628211
	var scratch [64]byte
	h := uint64(offset)
	for _, c := range row {
		for _, b := range appendCanonical(scratch[:0], c) {
			h = (h ^ uint64(b)) * prime
		}
	}
	d.Rows++
	d.Sum += h
}

// appendCanonical renders one cell so that an int64 from an oracle and the
// same number decoded from the wire (json.Number or float64) agree.
func appendCanonical(dst []byte, c any) []byte {
	switch v := c.(type) {
	case nil:
		return append(dst, 'n', 0)
	case int64:
		return appendInt(dst, v)
	case int:
		return appendInt(dst, int64(v))
	case float64:
		return appendFloat(dst, v)
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return appendInt(dst, i)
		}
		if f, err := v.Float64(); err == nil {
			return appendFloat(dst, f)
		}
		return append(append(append(dst, 'x'), v...), 0)
	case string:
		return append(append(append(dst, 's'), v...), 0)
	case bool:
		return append(strconv.AppendBool(append(dst, 'b'), v), 0)
	default:
		return append(append(dst, 'x'), fmt.Sprint(v)+"\x00"...)
	}
}

func appendInt(dst []byte, v int64) []byte {
	return append(strconv.AppendInt(append(dst, 'i'), v, 10), 0)
}

func appendFloat(dst []byte, f float64) []byte {
	if f == float64(int64(f)) && f < 1<<53 && f > -(1<<53) {
		return appendInt(dst, int64(f))
	}
	return append(strconv.AppendFloat(append(dst, 'f'), f, 'g', -1, 64), 0)
}

// outcome is what one response (or one oracle) says about a result table:
// its columns, its total row count, and the digest of the rows it carries
// (all of them, or the first page when the response is paged).
type outcome struct {
	Cols  []string
	Total int
	D     digest
}

func (o outcome) equal(p outcome) bool {
	if o.Total != p.Total || o.D != p.D || len(o.Cols) != len(p.Cols) {
		return false
	}
	for i := range o.Cols {
		if o.Cols[i] != p.Cols[i] {
			return false
		}
	}
	return true
}

func (o outcome) String() string {
	return fmt.Sprintf("cols=%v total=%d rows=%d digest=%016x", o.Cols, o.Total, o.D.Rows, o.D.Sum)
}

// --- Relational helpers the oracles share ---

// rowsOut collects oracle rows; page > 0 keeps only the first page rows in
// the digest while Total still counts every row.
type rowsOut struct {
	cols []string
	page int
	out  outcome
}

func newRowsOut(cols []string, page int) *rowsOut {
	return &rowsOut{cols: cols, page: page, out: outcome{Cols: cols}}
}

func (r *rowsOut) add(row []any) {
	r.out.Total++
	if r.page <= 0 || r.out.D.Rows < r.page {
		r.out.D.add(row)
	}
}

// group is one group-by bucket with int64 accumulators.
type group struct {
	key  any
	aggs []int64
}

// groupBy folds rows into buckets keyed by key(i) in first-seen order.
type groupBy struct {
	order []any
	m     map[any]*group
}

func newGroupBy() *groupBy { return &groupBy{m: map[any]*group{}} }

func (g *groupBy) at(key any, naggs int) *group {
	b, ok := g.m[key]
	if !ok {
		b = &group{key: key, aggs: make([]int64, naggs)}
		g.m[key] = b
		g.order = append(g.order, key)
	}
	return b
}

// sorted returns the groups ordered by less.
func (g *groupBy) sorted(less func(a, b *group) bool) []*group {
	out := make([]*group, 0, len(g.order))
	for _, k := range g.order {
		out = append(out, g.m[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func keyLess(a, b *group) bool {
	switch ka := a.key.(type) {
	case string:
		return ka < b.key.(string)
	case int64:
		return ka < b.key.(int64)
	}
	return false
}
