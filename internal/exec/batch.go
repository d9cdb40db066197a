package exec

import (
	"fmt"
	"time"

	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// This file implements the columnar path: Scan→Filter→Project→Limit
// chains execute over shared, version-cached column batches with
// vectorized predicates and projections. Stream hands such a chain to a
// batchIter, and an Aggregate above one folds the batch directly; rows
// materialize to []TRow only at the boundary to another row operator
// (join, window, sort, ...). With Context.Stats set, runBatch records
// every node of the chain, so EXPLAIN ANALYZE times the path the query
// really runs. The differential harness holds the columnar and row paths
// byte-equivalent.

// batchRes is a columnar intermediate result: a (possibly shared) batch
// plus a selection of surviving row indices; a nil selection means every
// row survives.
type batchRes struct {
	b   *types.Batch
	sel []int
}

// len returns the number of selected rows.
func (r *batchRes) len() int {
	if r.sel == nil {
		return r.b.Len()
	}
	return len(r.sel)
}

// at maps a dense position to a batch row index.
func (r *batchRes) at(i int) int {
	if r.sel == nil {
		return i
	}
	return r.sel[i]
}

// materialize converts the result to tagged rows. The returned slice is
// fresh (safe for in-place downstream sorting) but the rows themselves
// are shared views into the batch and must not be mutated.
func (r *batchRes) materialize() []TRow {
	rows := r.b.Rows()
	ids := r.b.IDs()
	if r.sel == nil {
		out := make([]TRow, len(rows))
		for i := range rows {
			out[i] = TRow{ID: ids[i], Row: rows[i]}
		}
		return out
	}
	out := make([]TRow, len(r.sel))
	for j, i := range r.sel {
		out[j] = TRow{ID: ids[i], Row: rows[i]}
	}
	return out
}

// batchable reports whether the whole subtree under n can execute on
// the columnar path (it bottoms out in a Scan through vectorizable
// operators only).
func batchable(n plan.Node) bool {
	switch x := n.(type) {
	case *plan.Scan:
		return true
	case *plan.Filter:
		return batchable(x.Input)
	case *plan.Project:
		return batchable(x.Input)
	case *plan.Limit:
		return batchable(x.Input)
	default:
		return false
	}
}

// runBatch executes a batchable subtree on the columnar path, recording
// each node's rows and inclusive time when stats are collected.
func runBatch(n plan.Node, ctx *Context) (res *batchRes, err error) {
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	if ctx.Stats != nil {
		start := time.Now()
		defer func() {
			rows := 0
			if res != nil {
				rows = res.len()
			}
			ctx.Stats.add(n, int64(rows), time.Since(start), true)
		}()
	}
	switch x := n.(type) {
	case *plan.Scan:
		b, err := ctx.BatchOf(x)
		if err != nil {
			return nil, err
		}
		if ctx.Counters != nil {
			ctx.Counters.ScanRows += int64(b.Len())
			ctx.Counters.ScanBytes += b.ApproxBytes()
		}
		return &batchRes{b: b}, nil
	case *plan.Filter:
		in, err := runBatch(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		sel, err := plan.FilterVec(x.Pred, in.b, in.sel, ctx.eval())
		if err != nil {
			return nil, err
		}
		return &batchRes{b: in.b, sel: sel}, nil
	case *plan.Project:
		in, err := runBatch(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		cols := make([]*types.Vector, len(x.Exprs))
		ev := ctx.eval()
		for i, e := range x.Exprs {
			v, err := plan.EvalVec(e, in.b, in.sel, ev)
			if err != nil {
				return nil, err
			}
			cols[i] = v
		}
		ids := in.b.IDs()
		if in.sel != nil {
			ids = make([]string, len(in.sel))
			for j, i := range in.sel {
				ids[j] = in.b.ID(i)
			}
		}
		return &batchRes{b: types.NewBatchFromCols(x.Schema(), ids, cols)}, nil
	case *plan.Limit:
		in, err := runBatch(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		n := int(x.N)
		if in.len() <= n {
			return in, nil
		}
		sel := in.sel
		if sel == nil {
			sel = make([]int, n)
			for i := range sel {
				sel[i] = i
			}
		} else {
			sel = sel[:n]
		}
		return &batchRes{b: in.b, sel: sel}, nil
	default:
		return nil, fmt.Errorf("exec: node %T is not batchable", n)
	}
}

// ColumnarRows is an exported handle to a columnar intermediate result.
// It lets the IVM layer carry boundary snapshots across the exec package
// boundary in batch form, deferring (or avoiding) row materialization.
type ColumnarRows struct {
	res *batchRes
}

// Rows materializes the result to tagged rows. The rows are shared views
// into the underlying batch and must not be mutated.
func (c *ColumnarRows) Rows() []TRow { return c.res.materialize() }

// Len returns the number of selected rows.
func (c *ColumnarRows) Len() int { return c.res.len() }

// RunColumnar evaluates a plan subtree on the columnar path when the
// context enables it and the subtree supports it. handled reports
// whether the columnar path ran at all: when false, no work was done and
// the caller must fall back to Run.
func RunColumnar(n plan.Node, ctx *Context) (_ *ColumnarRows, handled bool, _ error) {
	if ctx.BatchOf == nil || !batchable(n) {
		return nil, false, nil
	}
	res, err := runBatch(n, ctx)
	if err != nil {
		return nil, true, err
	}
	return &ColumnarRows{res: res}, true, nil
}

// AggregateColumnar aggregates a columnar input without materializing
// input rows. When affected is non-nil, rows whose group key is absent
// from it are skipped — the IVM affected-group restriction fused into
// the aggregation loop instead of a separate row-at-a-time filter pass.
func AggregateColumnar(a *plan.Aggregate, in *ColumnarRows, affected map[string]bool, ctx *Context) ([]TRow, error) {
	return aggregateBatch(a, in.res, affected, ctx)
}

// aggregateBatch is the vectorized aggregation loop: group-by and
// aggregate-argument expressions are evaluated once per column over the
// whole batch, group keys are encoded into one reused buffer, and map
// lookups use the allocation-free string-conversion idiom — so the
// steady-state per-row work (existing group, key already seen) allocates
// nothing, where the row loop pays a group-values row, a key buffer and
// a key string per input row.
func aggregateBatch(a *plan.Aggregate, in *batchRes, affected map[string]bool, ctx *Context) ([]TRow, error) {
	groups, order, err := aggregateBatchGroups(a, in, affected, ctx)
	if err != nil {
		return nil, err
	}
	return finalizeGroups(a, groups, order), nil
}

// aggregateBatchGroups is aggregateBatch's loop; it returns the groups
// and their first-seen order.
func aggregateBatchGroups(a *plan.Aggregate, in *batchRes, affected map[string]bool, ctx *Context) (map[string]*AggGroup, []string, error) {
	ev := ctx.eval()
	keys := make([]*types.Vector, len(a.GroupBy))
	for i, g := range a.GroupBy {
		v, err := plan.EvalVec(g, in.b, in.sel, ev)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = v
	}
	args := make([]*types.Vector, len(a.Aggs))
	for i, agg := range a.Aggs {
		if agg.Arg == nil {
			continue
		}
		v, err := plan.EvalVec(agg.Arg, in.b, in.sel, ev)
		if err != nil {
			return nil, nil, err
		}
		args[i] = v
	}

	groups := make(map[string]*AggGroup)
	order := []string{}
	var buf []byte
	n := in.len()
	ticks := 0
	for i := 0; i < n; i++ {
		if err := ctx.tick(&ticks); err != nil {
			return nil, nil, err
		}
		buf = buf[:0]
		for _, kv := range keys {
			buf = normalizeKeyValue(kv.Value(i)).EncodeKey(buf)
		}
		if affected != nil && !affected[string(buf)] {
			continue
		}
		grp := groups[string(buf)]
		if grp == nil {
			vals := make(types.Row, len(keys))
			for k, kv := range keys {
				vals[k] = kv.Value(i)
			}
			grp = newAggGroup(a, vals)
			key := string(buf)
			groups[key] = grp
			order = append(order, key)
		}
		grp.rows++
		for k := range grp.accs {
			var v types.Value
			if args[k] != nil {
				v = args[k].Value(i)
			}
			if err := grp.accs[k].addValue(v); err != nil {
				return nil, nil, err
			}
		}
	}
	return groups, order, nil
}

// batchIter adapts a columnar result to the pull-based cursor protocol,
// running the chain on first Next like sliceIter so statement errors
// surface on the first row, not at open.
type batchIter struct {
	n      plan.Node
	ctx    *Context
	res    *batchRes
	rows   []types.Row
	i      int
	closed bool
}

// open runs the chain once; a failed run closes the iterator.
func (it *batchIter) open() error {
	if it.res != nil {
		return nil
	}
	res, err := runBatch(it.n, it.ctx)
	if err != nil {
		it.Close()
		return err
	}
	it.res, it.rows = res, res.b.Rows()
	return nil
}

// Next implements RowIter.
func (it *batchIter) Next() (TRow, bool, error) {
	if it.closed {
		return TRow{}, false, nil
	}
	if err := it.open(); err != nil {
		return TRow{}, false, err
	}
	if it.i >= it.res.len() {
		return TRow{}, false, nil
	}
	if err := it.ctx.canceled(); err != nil {
		it.Close()
		return TRow{}, false, err
	}
	idx := it.res.at(it.i)
	it.i++
	return TRow{ID: it.res.b.ID(idx), Row: it.rows[idx]}, true, nil
}

func (it *batchIter) collect() ([]TRow, error) {
	if it.closed {
		return nil, nil
	}
	if err := it.open(); err != nil {
		return nil, err
	}
	rows := it.res.materialize()[it.i:]
	it.i = it.res.len()
	return rows, nil
}

// Close implements RowIter: it releases the batch, and later Next calls
// report exhaustion.
func (it *batchIter) Close() { it.closed = true; it.res = nil; it.rows = nil }
