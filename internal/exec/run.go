// Package exec evaluates bound query plans. Stream builds the one
// pull-based row pipeline (context-cancelable, over pinned source
// versions) that session cursors wrap; Run collects it into a slice.
// Scan→Filter→Project→Limit chains run on the columnar path (batch.go)
// when the context supplies batches. The executor is deliberately plain —
// nested-loop joins, hash aggregation, full sorts — because the engine's
// focus is refresh semantics, not single-query speed.
package exec

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// TRow is a row tagged with its derived row identifier (§5.5: incremental
// DTs define a unique ID for every row in the query result).
type TRow struct {
	ID  string
	Row types.Row
}

// Counters collects scan work: the refresh controller charges it to a
// refresh's resource record and cost model, and the benchmark probes
// report it per statement.
type Counters struct {
	ScanRows  int64 // rows produced by Scan nodes, plus input changes an IVM aggregate fold reads
	ScanBytes int64 // estimated bytes of rows produced by Scan nodes
}

// Merge folds another counter set into c. Parallel differentiation gives
// each concurrent branch its own Counters and merges after the join, so
// the fields stay plain int64s on the sequential fast path.
func (c *Counters) Merge(o *Counters) {
	c.ScanRows += o.ScanRows
	c.ScanBytes += o.ScanBytes
}

// Context supplies the executor's environment.
type Context struct {
	// RowsOf returns the pinned contents for a scan (the caller resolves
	// the table version per §5.3).
	RowsOf func(s *plan.Scan) (map[string]types.Row, error)
	// BatchOf, when non-nil, returns the pinned contents for a scan as a
	// shared columnar batch (sorted by row ID), enabling the vectorized
	// Scan→Filter→Project→Limit fast path. Scans outside batchable
	// chains use RowsOf.
	BatchOf func(s *plan.Scan) (*types.Batch, error)
	// Now is CURRENT_TIMESTAMP for this execution.
	Now time.Time
	// Counters, when non-nil, accumulates execution statistics.
	Counters *Counters
	// Params carries bind-parameter values for placeholder expressions.
	Params *plan.Params
	// Ctx, when non-nil, cancels execution: operators check it between
	// rows and abort with its error.
	Ctx context.Context
	// Stats, when non-nil, collects per-plan-node rows, loops and wall
	// time (EXPLAIN ANALYZE) on whichever path runs the node; nil — the
	// common case — costs nothing.
	Stats *NodeStats
}

func (c *Context) eval() *plan.EvalContext {
	return &plan.EvalContext{Now: c.Now, Params: c.Params}
}

// canceled returns the cancellation error, if any.
func (c *Context) canceled() error {
	if c.Ctx != nil {
		return c.Ctx.Err()
	}
	return nil
}

// tickEvery is how many rows a hot operator loop may process between
// cancellation checks: frequent enough that heavy joins and aggregations
// abort promptly, rare enough to stay off the profile.
const tickEvery = 4096

// tick counts loop iterations and polls for cancellation periodically.
func (c *Context) tick(n *int) error {
	*n++
	if *n%tickEvery == 0 {
		return c.canceled()
	}
	return nil
}

// Run executes a logical plan and returns the result rows with derived row
// IDs. Result order is unspecified except beneath Sort.
func Run(n plan.Node, ctx *Context) ([]TRow, error) {
	return Collect(Stream(n, ctx))
}

// normalizeKeyValue reconciles numerically equal values of different kinds
// so that join and grouping keys match across INT and FLOAT, and unwraps
// variant scalars.
func normalizeKeyValue(v types.Value) types.Value {
	switch v.Kind() {
	case types.KindFloat:
		f := v.Float()
		if f == float64(int64(f)) {
			return types.NewInt(int64(f))
		}
	case types.KindVariant:
		switch x := v.Variant().(type) {
		case nil:
			return types.Null
		case float64:
			return normalizeKeyValue(types.NewFloat(x))
		case string:
			return types.NewString(x)
		case bool:
			return types.NewBool(x)
		}
	}
	return v
}

// EvalKey computes the hash key for key expressions over a row; ok is
// false when any key component is NULL (SQL equality never matches NULLs).
// The IVM engine uses it to find join rows and partitions affected by a
// delta (§5.5.1).
func EvalKey(exprs []plan.Expr, row types.Row, now time.Time) (string, bool, error) {
	return evalKey(exprs, row, &plan.EvalContext{Now: now})
}

// evalKey computes a hash key for the expressions; ok is false when any
// key component is NULL (SQL equality never matches NULLs).
func evalKey(exprs []plan.Expr, row types.Row, ev *plan.EvalContext) (string, bool, error) {
	var buf []byte
	ok := true
	for _, e := range exprs {
		v, err := plan.Eval(e, row, ev)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			ok = false
		}
		buf = normalizeKeyValue(v).EncodeKey(buf)
	}
	return string(buf), ok, nil
}

func runJoin(j *plan.Join, ctx *Context) ([]TRow, error) {
	left, err := Run(j.L, ctx)
	if err != nil {
		return nil, err
	}
	right, err := Run(j.R, ctx)
	if err != nil {
		return nil, err
	}
	return JoinRows(j, left, right, ctx)
}

// JoinRows joins two pre-computed inputs using the join node's keys and
// residual. The IVM engine reuses it to join delta streams against
// snapshots without materializing scans twice.
func JoinRows(j *plan.Join, left, right []TRow, ctx *Context) ([]TRow, error) {
	ev := ctx.eval()
	lWidth := j.L.Schema().Len()
	rWidth := j.R.Schema().Len()

	type bucket struct {
		rows []int
	}
	build := make(map[string]*bucket, len(right))
	rightMatched := make([]bool, len(right))
	for i, tr := range right {
		key, ok, err := evalKey(j.RightKeys, tr.Row, ev)
		if err != nil {
			return nil, err
		}
		if !ok && len(j.RightKeys) > 0 {
			continue // NULL keys never match
		}
		b := build[key]
		if b == nil {
			b = &bucket{}
			build[key] = b
		}
		b.rows = append(b.rows, i)
	}

	var out []TRow
	nullRight := make(types.Row, rWidth)
	nullLeft := make(types.Row, lWidth)

	ticks := 0
	for _, ltr := range left {
		key, ok, err := evalKey(j.LeftKeys, ltr.Row, ev)
		if err != nil {
			return nil, err
		}
		matched := false
		if ok || len(j.LeftKeys) == 0 {
			if b := build[key]; b != nil {
				for _, ri := range b.rows {
					if err := ctx.tick(&ticks); err != nil {
						return nil, err
					}
					rtr := right[ri]
					combined := ltr.Row.Concat(rtr.Row)
					if j.Residual != nil {
						pass, err := plan.EvalBool(j.Residual, combined, ev)
						if err != nil {
							return nil, err
						}
						if !pass {
							continue
						}
					}
					matched = true
					rightMatched[ri] = true
					out = append(out, TRow{ID: joinID(ltr.ID, rtr.ID), Row: combined})
				}
			}
		}
		if !matched && (j.Type == sql.JoinLeft || j.Type == sql.JoinFull) {
			out = append(out, TRow{ID: joinID(ltr.ID, "-"), Row: ltr.Row.Concat(nullRight)})
		}
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		for i, rtr := range right {
			if !rightMatched[i] {
				out = append(out, TRow{ID: joinID("-", rtr.ID), Row: nullLeft.Concat(rtr.Row)})
			}
		}
	}
	return out, nil
}

func joinID(l, r string) string { return "(" + l + "*" + r + ")" }

// JoinRowID derives the combined row ID of a join output row; "-" stands
// for the null-extended side of an outer join.
func JoinRowID(l, r string) string { return joinID(l, r) }

// SplitJoinID splits a combined join row ID back into its two components.
// Embedded IDs (nested joins, union branch tags) contain balanced
// parentheses, so the separator is the '*' at parenthesis depth zero.
func SplitJoinID(id string) (l, r string, ok bool) {
	if len(id) < 3 || id[0] != '(' || id[len(id)-1] != ')' {
		return "", "", false
	}
	inner := id[1 : len(id)-1]
	depth := 0
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '*':
			if depth == 0 {
				return inner[:i], inner[i+1:], true
			}
		}
	}
	return "", "", false
}

// NormalizeKeyValue exposes key normalization (INT/FLOAT reconciliation,
// variant unwrapping) for callers building grouping keys outside the
// executor.
func NormalizeKeyValue(v types.Value) types.Value { return normalizeKeyValue(v) }

// ---------------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------------

type accumulator struct {
	agg plan.AggExpr

	count    int64
	sumInt   int64
	sumFloat float64
	isFloat  bool
	// wide counts integer SUM/AVG inputs beyond ±2^31 — the signal that
	// an AVG's float sum may not be exact (see AggGroup.Render).
	wide     int64
	min, max types.Value
	any      types.Value
	distinct map[string]bool
}

func newAccumulator(agg plan.AggExpr) accumulator {
	acc := accumulator{agg: agg, min: types.Null, max: types.Null, any: types.Null}
	if agg.Distinct {
		acc.distinct = make(map[string]bool)
	}
	return acc
}

func (a *accumulator) add(row types.Row, ev *plan.EvalContext) error {
	var v types.Value
	if a.agg.Arg != nil {
		var err error
		v, err = plan.Eval(a.agg.Arg, row, ev)
		if err != nil {
			return err
		}
	}
	return a.addValue(v)
}

// addValue folds one already-evaluated argument value into the
// accumulator — the entry point the columnar aggregation loop uses after
// evaluating the argument expression once per column.
func (a *accumulator) addValue(v types.Value) error {
	switch a.agg.Kind {
	case plan.AggCount:
		if a.agg.Arg == nil {
			a.count++
			return nil
		}
		if v.IsNull() {
			return nil
		}
		if a.distinct != nil {
			k := string(normalizeKeyValue(v).EncodeKey(nil))
			if a.distinct[k] {
				return nil
			}
			a.distinct[k] = true
		}
		a.count++
	case plan.AggCountIf:
		if !v.IsNull() && v.Kind() == types.KindBool && v.Bool() {
			a.count++
		}
	case plan.AggSum, plan.AggAvg:
		if v.IsNull() {
			return nil
		}
		if !v.Numeric() {
			return fmt.Errorf("exec: %s requires numeric input, got %s", a.agg.Kind, v.Kind())
		}
		a.count++
		if v.Kind() == types.KindFloat {
			a.isFloat = true
		}
		if a.isFloat {
			a.sumFloat += v.AsFloat()
		} else {
			a.sumInt += v.Int()
			a.sumFloat += v.AsFloat()
			if wideInt(v.Int()) {
				a.wide++
			}
		}
	case plan.AggMin, plan.AggMax:
		if v.IsNull() {
			return nil
		}
		ref := a.min
		if a.agg.Kind == plan.AggMax {
			ref = a.max
		}
		if ref.IsNull() {
			a.min, a.max = pick(a.agg.Kind, v, a.min, a.max)
			return nil
		}
		c, err := types.Compare(v, ref)
		if err != nil {
			return err
		}
		if (a.agg.Kind == plan.AggMin && c < 0) || (a.agg.Kind == plan.AggMax && c > 0) {
			a.min, a.max = pick(a.agg.Kind, v, a.min, a.max)
		}
	case plan.AggAnyValue:
		if a.any.IsNull() && !v.IsNull() {
			a.any = v
		}
	}
	return nil
}

func pick(kind plan.AggKind, v, curMin, curMax types.Value) (types.Value, types.Value) {
	if kind == plan.AggMin {
		return v, curMax
	}
	return curMin, v
}

func (a *accumulator) result() types.Value {
	switch a.agg.Kind {
	case plan.AggCount, plan.AggCountIf:
		return types.NewInt(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sumFloat)
		}
		return types.NewInt(a.sumInt)
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sumFloat / float64(a.count))
	case plan.AggMin:
		return a.min
	case plan.AggMax:
		return a.max
	case plan.AggAnyValue:
		return a.any
	default:
		return types.Null
	}
}

func runAggregate(a *plan.Aggregate, ctx *Context) ([]TRow, error) {
	if ctx.BatchOf != nil && batchable(a.Input) {
		res, err := runBatch(a.Input, ctx)
		if err != nil {
			return nil, err
		}
		return aggregateBatch(a, res, nil, ctx)
	}
	in, err := Run(a.Input, ctx)
	if err != nil {
		return nil, err
	}
	return AggregateRows(a, in, ctx)
}

// AggGroup is one group's aggregation state, shared by the row and
// columnar aggregation loops. For foldable aggregates it doubles as the
// per-group state IVM maintains across refreshes (see fold.go).
type AggGroup struct {
	vals types.Row
	rows int64
	accs []accumulator
}

func newAggGroup(a *plan.Aggregate, vals types.Row) *AggGroup {
	grp := &AggGroup{vals: vals, accs: make([]accumulator, len(a.Aggs))}
	for i, agg := range a.Aggs {
		grp.accs[i] = newAccumulator(agg)
	}
	return grp
}

// finalizeGroups renders the accumulated groups to output rows in
// first-seen order. A global aggregate (no GROUP BY) over empty input
// yields one row.
func finalizeGroups(a *plan.Aggregate, groups map[string]*AggGroup, order []string) []TRow {
	if len(a.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = newAggGroup(a, nil)
		order = append(order, "")
	}
	out := make([]TRow, 0, len(order))
	for _, key := range order {
		grp := groups[key]
		row := make(types.Row, 0, len(a.GroupBy)+len(a.Aggs))
		row = append(row, grp.vals...)
		for i := range grp.accs {
			row = append(row, grp.accs[i].result())
		}
		out = append(out, TRow{ID: GroupRowID(key), Row: row})
	}
	return out
}

// AggregateRows aggregates pre-computed input rows; reused by the IVM
// affected-group recompute rule.
func AggregateRows(a *plan.Aggregate, in []TRow, ctx *Context) ([]TRow, error) {
	groups, order, err := aggregateRowGroups(a, in, ctx)
	if err != nil {
		return nil, err
	}
	return finalizeGroups(a, groups, order), nil
}

// aggregateRowGroups is the row-at-a-time aggregation loop; it returns
// the groups and their first-seen order.
func aggregateRowGroups(a *plan.Aggregate, in []TRow, ctx *Context) (map[string]*AggGroup, []string, error) {
	ev := ctx.eval()
	groups := make(map[string]*AggGroup)
	order := []string{}

	ticks := 0
	for _, tr := range in {
		if err := ctx.tick(&ticks); err != nil {
			return nil, nil, err
		}
		vals := make(types.Row, len(a.GroupBy))
		var buf []byte
		for i, g := range a.GroupBy {
			v, err := plan.Eval(g, tr.Row, ev)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
			buf = normalizeKeyValue(v).EncodeKey(buf)
		}
		key := string(buf)
		grp := groups[key]
		if grp == nil {
			grp = newAggGroup(a, vals)
			groups[key] = grp
			order = append(order, key)
		}
		grp.rows++
		for i := range grp.accs {
			if err := grp.accs[i].add(tr.Row, ev); err != nil {
				return nil, nil, err
			}
		}
	}
	return groups, order, nil
}

// GroupRowID derives the stable row ID for an aggregate output row from
// its encoded group key: a plaintext prefix plus a 64-bit hash (§5.5.2).
func GroupRowID(encodedKey string) string {
	h := fnv.New64a()
	h.Write([]byte(encodedKey))
	return "g:" + strconv.FormatUint(h.Sum64(), 16)
}

// DistinctRowID derives the stable row ID for a distinct output row.
func DistinctRowID(encodedKey string) string {
	h := fnv.New64a()
	h.Write([]byte(encodedKey))
	return "d:" + strconv.FormatUint(h.Sum64(), 16)
}

// ---------------------------------------------------------------------------
// window functions
// ---------------------------------------------------------------------------

func runWindow(w *plan.Window, ctx *Context) ([]TRow, error) {
	in, err := Run(w.Input, ctx)
	if err != nil {
		return nil, err
	}
	return WindowRows(w, in, ctx)
}

// WindowRows applies window functions to pre-computed input; reused by the
// IVM changed-partition recompute rule (§5.5.1).
func WindowRows(w *plan.Window, in []TRow, ctx *Context) ([]TRow, error) {
	ev := ctx.eval()
	partitions := make(map[string][]*partRow)
	var keys []string
	ticks := 0
	for _, tr := range in {
		if err := ctx.tick(&ticks); err != nil {
			return nil, err
		}
		var buf []byte
		for _, pe := range w.PartitionBy {
			v, err := plan.Eval(pe, tr.Row, ev)
			if err != nil {
				return nil, err
			}
			buf = normalizeKeyValue(v).EncodeKey(buf)
		}
		key := string(buf)
		if _, ok := partitions[key]; !ok {
			keys = append(keys, key)
		}
		ok := make([]types.Value, len(w.OrderBy))
		for i, o := range w.OrderBy {
			v, err := plan.Eval(o.Expr, tr.Row, ev)
			if err != nil {
				return nil, err
			}
			ok[i] = v
		}
		partitions[key] = append(partitions[key], &partRow{tr: tr, orderKey: ok})
	}

	var out []TRow
	for _, key := range keys {
		part := partitions[key]
		// Sort by ORDER BY with row-ID tie-break so ties are repeatable
		// across refreshes (§5.5.1 requires repeatable tie-breaking).
		sort.SliceStable(part, func(i, j int) bool {
			for k, o := range w.OrderBy {
				c, err := types.Compare(part[i].orderKey[k], part[j].orderKey[k])
				if err != nil {
					c = 0
				}
				if c != 0 {
					if o.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return part[i].tr.ID < part[j].tr.ID
		})
		results, err := windowPartition(w, part, ev)
		if err != nil {
			return nil, err
		}
		for i, pr := range part {
			row := pr.tr.Row.Concat(results[i])
			out = append(out, TRow{ID: pr.tr.ID, Row: row})
		}
	}
	return out, nil
}

// partRow pairs a row with its evaluated ORDER BY key during windowing.
type partRow struct {
	tr       TRow
	orderKey []types.Value
}

// windowPartition computes every window function over one sorted partition,
// returning the appended column values per row.
func windowPartition(w *plan.Window, part []*partRow, ev *plan.EvalContext) ([]types.Row, error) {
	n := len(part)
	out := make([]types.Row, n)
	for i := range out {
		out[i] = make(types.Row, len(w.Funcs))
	}
	ordered := len(w.OrderBy) > 0
	for fi, f := range w.Funcs {
		argAt := func(i int) (types.Value, error) {
			if f.Arg == nil {
				return types.Null, nil
			}
			return plan.Eval(f.Arg, part[i].tr.Row, ev)
		}
		switch f.Kind {
		case plan.WinRowNumber:
			for i := 0; i < n; i++ {
				out[i][fi] = types.NewInt(int64(i + 1))
			}
		case plan.WinRank, plan.WinDenseRank:
			rank, dense := int64(1), int64(1)
			for i := 0; i < n; i++ {
				if i > 0 && !sameOrderKey(part[i-1].orderKey, part[i].orderKey) {
					rank = int64(i + 1)
					dense++
				}
				if f.Kind == plan.WinRank {
					out[i][fi] = types.NewInt(rank)
				} else {
					out[i][fi] = types.NewInt(dense)
				}
			}
		case plan.WinLag, plan.WinLead:
			for i := 0; i < n; i++ {
				j := i - int(f.Offset)
				if f.Kind == plan.WinLead {
					j = i + int(f.Offset)
				}
				if j < 0 || j >= n {
					out[i][fi] = types.Null
					continue
				}
				v, err := argAt(j)
				if err != nil {
					return nil, err
				}
				out[i][fi] = v
			}
		case plan.WinFirstValue:
			v, err := argAt(0)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				out[i][fi] = v
			}
		case plan.WinLastValue:
			v, err := argAt(n - 1)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				out[i][fi] = v
			}
		case plan.WinSum, plan.WinCount, plan.WinMin, plan.WinMax, plan.WinAvg:
			if err := windowAggregate(f, part, out, fi, ordered, ev); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("exec: unsupported window function %s", f.Kind)
		}
	}
	return out, nil
}

// windowAggregate computes aggregate-style window functions: cumulative
// when an ORDER BY is present, whole-partition otherwise.
func windowAggregate(f plan.WindowFunc, part []*partRow, out []types.Row, fi int, ordered bool, ev *plan.EvalContext) error {
	n := len(part)
	var count int64
	var sum float64
	sumIsFloat := false
	var sumInt int64
	minV, maxV := types.Null, types.Null

	emit := func(i int) {
		switch f.Kind {
		case plan.WinCount:
			out[i][fi] = types.NewInt(count)
		case plan.WinSum:
			if count == 0 {
				out[i][fi] = types.Null
			} else if sumIsFloat {
				out[i][fi] = types.NewFloat(sum)
			} else {
				out[i][fi] = types.NewInt(sumInt)
			}
		case plan.WinAvg:
			if count == 0 {
				out[i][fi] = types.Null
			} else {
				out[i][fi] = types.NewFloat(sum / float64(count))
			}
		case plan.WinMin:
			out[i][fi] = minV
		case plan.WinMax:
			out[i][fi] = maxV
		}
	}

	add := func(i int) error {
		var v types.Value
		if f.Arg != nil {
			var err error
			v, err = plan.Eval(f.Arg, part[i].tr.Row, ev)
			if err != nil {
				return err
			}
		}
		if f.Kind == plan.WinCount {
			if f.Arg == nil || !v.IsNull() {
				count++
			}
			return nil
		}
		if v.IsNull() {
			return nil
		}
		switch f.Kind {
		case plan.WinSum, plan.WinAvg:
			if !v.Numeric() {
				return fmt.Errorf("exec: %s requires numeric input", f.Kind)
			}
			count++
			if v.Kind() == types.KindFloat {
				sumIsFloat = true
			}
			sum += v.AsFloat()
			if !sumIsFloat {
				sumInt += v.Int()
			}
		case plan.WinMin:
			if minV.IsNull() {
				minV = v
			} else if c, err := types.Compare(v, minV); err == nil && c < 0 {
				minV = v
			}
		case plan.WinMax:
			if maxV.IsNull() {
				maxV = v
			} else if c, err := types.Compare(v, maxV); err == nil && c > 0 {
				maxV = v
			}
		}
		return nil
	}

	if ordered {
		// Cumulative frame: rows with equal order keys share the frame end
		// (RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW).
		i := 0
		for i < n {
			j := i
			for j < n && sameOrderKey(part[i].orderKey, part[j].orderKey) {
				if err := add(j); err != nil {
					return err
				}
				j++
			}
			for k := i; k < j; k++ {
				emit(k)
			}
			i = j
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := add(i); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		emit(i)
	}
	return nil
}

func sameOrderKey(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// remaining operators
// ---------------------------------------------------------------------------

func runDistinct(d *plan.Distinct, ctx *Context) ([]TRow, error) {
	in, err := Run(d.Input, ctx)
	if err != nil {
		return nil, err
	}
	return DistinctRows(in)
}

// DistinctRows eliminates duplicates from pre-computed rows; reused by IVM.
func DistinctRows(in []TRow) ([]TRow, error) {
	seen := make(map[string]bool, len(in))
	var out []TRow
	for _, tr := range in {
		var buf []byte
		for _, v := range tr.Row {
			buf = normalizeKeyValue(v).EncodeKey(buf)
		}
		key := string(buf)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, TRow{ID: DistinctRowID(key), Row: tr.Row})
	}
	return out, nil
}

// FlattenRows unnests pre-computed rows; reused by IVM.
func FlattenRows(f *plan.Flatten, in []TRow, ctx *Context) ([]TRow, error) {
	ev := ctx.eval()
	var out []TRow
	for _, tr := range in {
		v, err := plan.Eval(f.Expr, tr.Row, ev)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if v.Kind() != types.KindVariant {
			return nil, fmt.Errorf("exec: FLATTEN requires a VARIANT input, got %s", v.Kind())
		}
		arr, ok := v.Variant().([]any)
		if !ok {
			// Non-array variants flatten to a single row with NULL index.
			row := tr.Row.Concat(types.Row{v, types.Null})
			out = append(out, TRow{ID: tr.ID + "#0", Row: row})
			continue
		}
		for i, el := range arr {
			row := tr.Row.Concat(types.Row{types.NewVariant(el), types.NewInt(int64(i))})
			out = append(out, TRow{ID: tr.ID + "#" + strconv.Itoa(i), Row: row})
		}
	}
	return out, nil
}

func runSort(s *plan.Sort, ctx *Context) ([]TRow, error) {
	in, err := Run(s.Input, ctx)
	if err != nil {
		return nil, err
	}
	ev := ctx.eval()
	type keyed struct {
		tr   TRow
		keys []types.Value
	}
	rows := make([]keyed, len(in))
	ticks := 0
	for i, tr := range in {
		if err := ctx.tick(&ticks); err != nil {
			return nil, err
		}
		ks := make([]types.Value, len(s.Items))
		for j, item := range s.Items {
			v, err := plan.Eval(item.Expr, tr.Row, ev)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		rows[i] = keyed{tr: tr, keys: ks}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, item := range s.Items {
			c, err := types.Compare(rows[i].keys[k], rows[j].keys[k])
			if err != nil {
				c = 0
			}
			if c != 0 {
				if item.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return rows[i].tr.ID < rows[j].tr.ID
	})
	out := make([]TRow, len(rows))
	for i, r := range rows {
		out[i] = r.tr
	}
	return out, nil
}
