package sqlengine

import (
	"sort"

	"datachat/internal/dataset"
)

// distinctSpiller is streaming DISTINCT's budget-overflow path. The
// in-memory phase emits first occurrences until the seen-set hits the
// budget; at that point every key emitted so far is flushed to a sorted
// on-disk run, the charge is released, and all remaining input rows are
// deferred to a pending run. resolve then dedupes the tail externally:
// sort by (key, arrival), keep each key's first arrival, subtract the
// emitted keys with a linear merge, and sort the survivors back into
// arrival order — so spilled DISTINCT keeps exactly the rows the
// materialized path keeps, in the same order, under any budget.
type distinctSpiller struct {
	se      *streamExec
	op      string
	emitted *spillRun    // keys emitted in the in-memory phase, sorted
	pending *spillWriter // deferred tail: A=row values, B=[key], Seq=arrival
	seq     int
	names   []string
	types   []dataset.Type
}

// newDistinctSpiller flushes the in-memory phase's seen keys as the sorted
// emitted-key run and opens the pending tail run.
func newDistinctSpiller(se *streamExec, op string, seenKeys []string) (*distinctSpiller, error) {
	sort.Strings(seenKeys) // strings.Compare order, matching dataset.Compare on strings
	w, err := se.newSpillWriter(op + "-keys")
	if err != nil {
		return nil, err
	}
	for _, k := range seenKeys {
		if err := w.write(&spillRec{B: []dataset.Value{dataset.Str(k)}}); err != nil {
			w.abort()
			return nil, err
		}
	}
	emitted, err := w.finish()
	if err != nil {
		return nil, err
	}
	pending, err := se.newSpillWriter(op + "-tail")
	if err != nil {
		emitted.remove()
		return nil, err
	}
	return &distinctSpiller{se: se, op: op, emitted: emitted, pending: pending}, nil
}

// add defers one chunk's rows to the pending tail run; keys are the chunk's
// row keys, rendered by a pipeline worker.
func (d *distinctSpiller) add(t *dataset.Table, keys []string) error {
	if d.names == nil {
		d.names = t.ColumnNames()
		cols := t.Columns()
		d.types = make([]dataset.Type, len(cols))
		for i, c := range cols {
			d.types[i] = c.Type()
		}
	}
	for r := 0; r < t.NumRows(); r++ {
		rec := &spillRec{Seq: d.seq, A: t.Row(r), B: []dataset.Value{dataset.Str(keys[r])}}
		if err := d.pending.write(rec); err != nil {
			return err
		}
		d.seq++
	}
	return nil
}

// resolve closes the tail run, dedupes it externally, and returns a pull
// over the surviving rows in arrival order.
func (d *distinctSpiller) resolve() (func() (*dataset.Table, error), error) {
	run, err := d.pending.finish()
	if err != nil {
		return nil, err
	}
	if d.names == nil { // no tail rows arrived after the switch
		d.emitted.remove()
		run.remove()
		return func() (*dataset.Table, error) { return nil, nil }, nil
	}
	batchRows := d.se.opts.chunkRows()
	var vals, keys [][]dataset.Value
	seq := 0
	flush := func(s *extSorter) error {
		if len(vals) == 0 {
			return nil
		}
		if err := s.addRun(seq, vals, keys, nil); err != nil {
			return err
		}
		seq++
		vals, keys = nil, nil
		return nil
	}

	// Sort the tail by (key, arrival); the sorter's stability makes the
	// first row of each equal-key group the key's earliest arrival.
	byKey := newExtSorter(d.se, d.op+"-spill-key", []OrderItem{{}, {}})
	rd, err := run.open()
	if err != nil {
		return nil, err
	}
	for {
		rec, err := rd.next()
		if err != nil {
			rd.close()
			return nil, err
		}
		if rec == nil {
			rd.close()
			break
		}
		vals = append(vals, rec.A)
		keys = append(keys, []dataset.Value{rec.B[0], dataset.Int(int64(rec.Seq))})
		if len(vals) >= batchRows {
			if err := flush(byKey); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(byKey); err != nil {
		return nil, err
	}

	// Linear merge against the sorted emitted-key run: both streams are in
	// strings.Compare order, so one pass subtracts the in-memory phase.
	emRd, err := d.emitted.open()
	if err != nil {
		return nil, err
	}
	var emCur *spillRec
	emEOF := false
	emittedHas := func(key dataset.Value) (bool, error) {
		for {
			if emCur == nil {
				if emEOF {
					return false, nil
				}
				rec, err := emRd.next()
				if err != nil {
					return false, err
				}
				if rec == nil {
					emEOF = true
					emRd.close()
					return false, nil
				}
				emCur = rec
			}
			switch cmp := dataset.Compare(emCur.B[0], key); {
			case cmp < 0:
				emCur = nil
			case cmp == 0:
				return true, nil
			default:
				return false, nil
			}
		}
	}

	bySeq := newExtSorter(d.se, d.op+"-spill-seq", []OrderItem{{}})
	srcs := byKey.sources()
	var prevKey dataset.Value
	havePrev := false
	seq = 0
	for {
		v, k, ok, err := byKey.mergeStep(srcs)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if havePrev && dataset.Compare(prevKey, k[0]) == 0 {
			continue // a later arrival of a key the tail already kept
		}
		prevKey, havePrev = k[0], true
		dup, err := emittedHas(k[0])
		if err != nil {
			return nil, err
		}
		if dup {
			continue
		}
		vals = append(vals, v)
		keys = append(keys, []dataset.Value{k[1]})
		if len(vals) >= batchRows {
			if err := flush(bySeq); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(bySeq); err != nil {
		return nil, err
	}
	if !emEOF {
		emRd.close()
	}

	outSrcs := bySeq.sources()
	return func() (*dataset.Table, error) {
		var rows [][]dataset.Value
		for len(rows) < batchRows {
			v, _, ok, err := bySeq.mergeStep(outSrcs)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			rows = append(rows, v)
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return buildValueChunk(d.names, d.types, rows)
	}, nil
}
