package exec

import (
	"fmt"
	"strconv"

	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// RowIter is a pull-based cursor over plan execution output. Next returns
// the next row, or ok=false once the input is exhausted or Close has been
// called. Iterators are not safe for concurrent use.
type RowIter interface {
	Next() (TRow, bool, error)
	Close()
}

// Stream returns a cursor over the plan's result rows. With ctx.BatchOf
// set, a batchable subtree (Scan→Filter→Project→Limit) runs on the
// columnar path. Otherwise pipelined operators (Filter, Project, Limit,
// UnionAll, Flatten) produce rows incrementally, and Scan and the
// blocking operators (Join, Aggregate, Window, Sort, Distinct)
// materialize on first Next. Every operator checks ctx.Ctx between rows, so
// abandoning the cursor via context cancellation stops execution
// promptly. With ctx.Stats set, every node reports rows out, loops and
// cumulative wall time: streamed nodes through statIter, columnar chains
// node by node inside runBatch.
func Stream(n plan.Node, ctx *Context) RowIter {
	it := stream(n, ctx)
	if ctx.Stats != nil {
		if _, columnar := it.(*batchIter); !columnar {
			// runBatch already records every node of a columnar chain;
			// wrapping its cursor too would count the top node twice.
			return &statIter{in: it, stats: ctx.Stats, n: n}
		}
	}
	return it
}

func stream(n plan.Node, ctx *Context) RowIter {
	if ctx.BatchOf != nil && batchable(n) {
		return &batchIter{n: n, ctx: ctx}
	}
	deferred := func(fill func() ([]TRow, error)) RowIter {
		return &sliceIter{fill: fill, ctx: ctx}
	}
	switch x := n.(type) {
	case *plan.Scan:
		return deferred(func() ([]TRow, error) { return scanRows(x, ctx) })
	case *plan.Filter:
		return &filterIter{in: Stream(x.Input, ctx), pred: x.Pred, ctx: ctx, ev: ctx.eval()}
	case *plan.Project:
		return &projectIter{in: Stream(x.Input, ctx), exprs: x.Exprs, ctx: ctx, ev: ctx.eval()}
	case *plan.Limit:
		return &limitIter{in: Stream(x.Input, ctx), n: x.N}
	case *plan.UnionAll:
		return &unionIter{u: x, ctx: ctx}
	case *plan.Flatten:
		return &flattenIter{in: Stream(x.Input, ctx), f: x, ctx: ctx}
	case *plan.Values:
		out := make([]TRow, len(x.Rows))
		for i, r := range x.Rows {
			out[i] = TRow{ID: "v:" + strconv.Itoa(i), Row: r}
		}
		return &sliceIter{rows: out, ctx: ctx}
	case *plan.Join:
		return deferred(func() ([]TRow, error) { return runJoin(x, ctx) })
	case *plan.Aggregate:
		return deferred(func() ([]TRow, error) { return runAggregate(x, ctx) })
	case *plan.Window:
		return deferred(func() ([]TRow, error) { return runWindow(x, ctx) })
	case *plan.Distinct:
		return deferred(func() ([]TRow, error) { return runDistinct(x, ctx) })
	case *plan.Sort:
		return deferred(func() ([]TRow, error) { return runSort(x, ctx) })
	default:
		return deferred(func() ([]TRow, error) {
			return nil, fmt.Errorf("exec: unsupported plan node %T", n)
		})
	}
}

// materializer is a cursor that can hand over its remaining rows as one
// slice: rows that already sit in a slice, or are computed all at once,
// are taken instead of copied row by row.
type materializer interface {
	collect() ([]TRow, error)
}

// Collect drains a cursor into a slice, closing it.
func Collect(it RowIter) ([]TRow, error) {
	defer it.Close()
	if m, ok := it.(materializer); ok {
		return m.collect()
	}
	return drain(it)
}

// drain pulls a cursor's remaining rows one at a time.
func drain(it RowIter) ([]TRow, error) {
	var out []TRow
	for {
		tr, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, tr)
	}
}

// sliceIter yields materialized rows. When fill is set it computes them
// on first Next — a scan or a blocking operator — so statement errors
// surface on the first row, not at open.
type sliceIter struct {
	fill func() ([]TRow, error)
	rows []TRow
	pos  int
	ctx  *Context
}

// open runs fill once; a failed fill closes the iterator.
func (it *sliceIter) open() error {
	fill := it.fill
	it.fill = nil
	err := it.ctx.canceled()
	if err == nil {
		it.rows, err = fill()
	}
	if err != nil {
		it.Close()
	}
	return err
}

func (it *sliceIter) Next() (TRow, bool, error) {
	if it.fill != nil {
		if err := it.open(); err != nil {
			return TRow{}, false, err
		}
	}
	if it.pos >= len(it.rows) {
		return TRow{}, false, nil
	}
	if err := it.ctx.canceled(); err != nil {
		it.Close()
		return TRow{}, false, err
	}
	it.pos++
	return it.rows[it.pos-1], true, nil
}

func (it *sliceIter) collect() ([]TRow, error) {
	if it.fill != nil {
		if err := it.open(); err != nil {
			return nil, err
		}
	}
	rows := it.rows[it.pos:]
	it.pos = len(it.rows)
	return rows, nil
}

// Close implements RowIter: it drops the rows, so later Next calls
// report exhaustion.
func (it *sliceIter) Close() { it.fill, it.rows, it.pos = nil, nil, 0 }

// scanRows resolves a scan's pinned contents.
func scanRows(s *plan.Scan, ctx *Context) ([]TRow, error) {
	contents, err := ctx.RowsOf(s)
	if err != nil {
		return nil, err
	}
	out := make([]TRow, 0, len(contents))
	for id, r := range contents {
		out = append(out, TRow{ID: id, Row: r})
	}
	if ctx.Counters != nil {
		ctx.Counters.ScanRows += int64(len(out))
		ctx.Counters.ScanBytes += approxRowsBytes(out)
	}
	return out, nil
}

// approxRowsBytes estimates the in-memory size of scanned rows — the
// executor's bytes-processed accounting signal. The walk only runs when
// counters are attached, so plain statement execution pays nothing.
func approxRowsBytes(rows []TRow) int64 {
	var n int64
	for i := range rows {
		n += rows[i].Row.ApproxBytes()
	}
	return n
}

type filterIter struct {
	in     RowIter
	pred   plan.Expr
	ctx    *Context
	ev     *plan.EvalContext
	closed bool
}

func (it *filterIter) Next() (TRow, bool, error) {
	if it.closed {
		return TRow{}, false, nil
	}
	ev := it.ev
	for {
		if err := it.ctx.canceled(); err != nil {
			it.Close()
			return TRow{}, false, err
		}
		tr, ok, err := it.in.Next()
		if err != nil || !ok {
			return TRow{}, false, err
		}
		pass, err := plan.EvalBool(it.pred, tr.Row, ev)
		if err != nil {
			it.Close()
			return TRow{}, false, err
		}
		if pass {
			return tr, true, nil
		}
	}
}

func (it *filterIter) Close() { it.closed = true; it.in.Close() }

type projectIter struct {
	in     RowIter
	exprs  []plan.Expr
	ctx    *Context
	ev     *plan.EvalContext
	closed bool
}

func (it *projectIter) Next() (TRow, bool, error) {
	if it.closed {
		return TRow{}, false, nil
	}
	if err := it.ctx.canceled(); err != nil {
		it.Close()
		return TRow{}, false, err
	}
	tr, ok, err := it.in.Next()
	if err != nil || !ok {
		return TRow{}, false, err
	}
	out, err := it.project(tr)
	if err != nil {
		it.Close()
		return TRow{}, false, err
	}
	return out, true, nil
}

func (it *projectIter) project(tr TRow) (TRow, error) {
	row := make(types.Row, len(it.exprs))
	for j, e := range it.exprs {
		v, err := plan.Eval(e, tr.Row, it.ev)
		if err != nil {
			return TRow{}, err
		}
		row[j] = v
	}
	return TRow{ID: tr.ID, Row: row}, nil
}

// collect maps a materialized input (a join's or aggregate's output) into
// one exact-size slice rather than growing one row by row.
func (it *projectIter) collect() ([]TRow, error) {
	m, ok := it.in.(materializer)
	if !ok {
		return drain(it)
	}
	in, err := m.collect()
	if err != nil {
		return nil, err
	}
	out := make([]TRow, len(in))
	ticks := 0
	for i, tr := range in {
		if err := it.ctx.tick(&ticks); err != nil {
			return nil, err
		}
		if out[i], err = it.project(tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (it *projectIter) Close() { it.closed = true; it.in.Close() }

type limitIter struct {
	in     RowIter
	n      int64
	seen   int64
	closed bool
}

func (it *limitIter) Next() (TRow, bool, error) {
	if it.closed || it.seen >= it.n {
		it.Close()
		return TRow{}, false, nil
	}
	tr, ok, err := it.in.Next()
	if err != nil || !ok {
		return TRow{}, false, err
	}
	it.seen++
	return tr, true, nil
}

func (it *limitIter) Close() { it.closed = true; it.in.Close() }

// unionIter streams each branch in order, opening branches lazily.
type unionIter struct {
	u      *plan.UnionAll
	ctx    *Context
	branch int
	cur    RowIter
	closed bool
}

func (it *unionIter) Next() (TRow, bool, error) {
	if it.closed {
		return TRow{}, false, nil
	}
	for {
		if it.cur == nil {
			if it.branch >= len(it.u.Inputs) {
				return TRow{}, false, nil
			}
			it.cur = Stream(it.u.Inputs[it.branch], it.ctx)
		}
		tr, ok, err := it.cur.Next()
		if err != nil {
			it.Close()
			return TRow{}, false, err
		}
		if ok {
			return TRow{ID: UnionBranchID(it.branch, tr.ID), Row: tr.Row}, true, nil
		}
		it.cur.Close()
		it.cur = nil
		it.branch++
	}
}

func (it *unionIter) Close() {
	it.closed = true
	if it.cur != nil {
		it.cur.Close()
		it.cur = nil
	}
}

// UnionBranchID derives the output row ID for branch i of a union.
func UnionBranchID(i int, id string) string {
	return "u" + strconv.Itoa(i) + "(" + id + ")"
}

// flattenIter unnests variant arrays one input row at a time.
type flattenIter struct {
	in      RowIter
	f       *plan.Flatten
	ctx     *Context
	pending []TRow
	closed  bool
}

func (it *flattenIter) Next() (TRow, bool, error) {
	if it.closed {
		return TRow{}, false, nil
	}
	for {
		if len(it.pending) > 0 {
			tr := it.pending[0]
			it.pending = it.pending[1:]
			return tr, true, nil
		}
		if err := it.ctx.canceled(); err != nil {
			it.Close()
			return TRow{}, false, err
		}
		tr, ok, err := it.in.Next()
		if err != nil || !ok {
			return TRow{}, false, err
		}
		out, err := FlattenRows(it.f, []TRow{tr}, it.ctx)
		if err != nil {
			it.Close()
			return TRow{}, false, err
		}
		it.pending = out
	}
}

func (it *flattenIter) Close() { it.closed = true; it.pending = nil; it.in.Close() }
