package exec

import (
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// Folding maintains a grouped aggregate's groups across refreshes by
// adding and removing signed input rows instead of re-aggregating. It is
// exact only for invertible aggregates whose rendered result is a
// function of per-group counts and integer sums, so every entry point
// below refuses (ok == false) whatever it cannot reproduce byte for byte;
// callers then fall back to recomputing the affected groups.

// Bounds under which an AVG's sequential float sum provably equals its
// exact integer sum: at most 2^22 values of magnitude at most 2^31 keep
// every partial sum within ±2^53, where float64 addition is exact.
const (
	maxExactAvgCount = 1 << 22
	maxExactAvgValue = 1 << 31
)

func wideInt(v int64) bool { return v > maxExactAvgValue || v < -maxExactAvgValue }

// plainKind reports whether key normalization leaves values of the kind
// unchanged and sums over them are exact: not FLOAT, not VARIANT.
func plainKind(k types.Kind) bool { return k != types.KindFloat && k != types.KindVariant }

// Foldable reports whether the aggregate's groups can be folded: grouped,
// with group keys of a kind key normalization leaves unchanged (no FLOAT
// or VARIANT), and only non-DISTINCT COUNT(*), COUNT(x), COUNT_IF, and
// SUM/AVG over a non-float, non-variant argument.
func Foldable(a *plan.Aggregate) bool {
	if len(a.GroupBy) == 0 {
		return false
	}
	for _, g := range a.GroupBy {
		if !plainKind(plan.InferKind(g)) {
			return false
		}
	}
	for _, agg := range a.Aggs {
		if agg.Distinct {
			return false
		}
		switch agg.Kind {
		case plan.AggCount, plan.AggCountIf:
		case plan.AggSum, plan.AggAvg:
			if !plainKind(plan.InferKind(agg.Arg)) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// FoldKey evaluates an input row's encoded group key and key values for
// a foldable aggregate. ok is false when a key value is FLOAT or VARIANT
// (whose normalization could merge distinct encodings) or fails to
// evaluate.
func FoldKey(a *plan.Aggregate, row types.Row, ev *plan.EvalContext) (key string, vals types.Row, ok bool) {
	vals = make(types.Row, len(a.GroupBy))
	var buf []byte
	for i, g := range a.GroupBy {
		v, err := plan.Eval(g, row, ev)
		if err != nil || !plainKind(v.Kind()) {
			return "", nil, false
		}
		vals[i] = v
		buf = v.EncodeKey(buf)
	}
	return string(buf), vals, true
}

// NewFoldGroup returns an empty group with the given key values.
func NewFoldGroup(a *plan.Aggregate, vals types.Row) *AggGroup { return newAggGroup(a, vals) }

// Clone copies the group so a fold can change it while the original
// stays readable.
func (g *AggGroup) Clone() *AggGroup {
	c := *g
	c.accs = append([]accumulator(nil), g.accs...)
	return &c
}

// Rows returns the number of input rows in the group.
func (g *AggGroup) Rows() int64 { return g.rows }

// Fold adds (sign = 1) or removes (sign = -1) one input row of a foldable
// aggregate. It returns false when the row carries a value the state
// cannot represent (a FLOAT or non-numeric SUM/AVG input) or fails to
// evaluate.
func (g *AggGroup) Fold(row types.Row, sign int64, ev *plan.EvalContext) bool {
	g.rows += sign
	for i := range g.accs {
		acc := &g.accs[i]
		var v types.Value
		if acc.agg.Arg != nil {
			var err error
			if v, err = plan.Eval(acc.agg.Arg, row, ev); err != nil {
				return false
			}
		}
		if !acc.fold(v, sign) {
			return false
		}
	}
	return true
}

// fold is addValue's signed counterpart for the foldable kinds. Integer
// sums wrap exactly as addValue's do, so wraparound folds identically.
func (a *accumulator) fold(v types.Value, sign int64) bool {
	switch a.agg.Kind {
	case plan.AggCount:
		if a.agg.Arg == nil || !v.IsNull() {
			a.count += sign
		}
	case plan.AggCountIf:
		if !v.IsNull() && v.Kind() == types.KindBool && v.Bool() {
			a.count += sign
		}
	case plan.AggSum, plan.AggAvg:
		if v.IsNull() {
			return true
		}
		if v.Kind() != types.KindInt {
			return false
		}
		a.count += sign
		a.sumInt += sign * v.Int()
		if wideInt(v.Int()) {
			a.wide += sign
		}
	default:
		return false
	}
	return true
}

// Render returns the group's output row exactly as aggregating its input
// rows would. It reports false for a group without rows, or when an
// AVG's float sum is not provably exact; only a recompute reproduces the
// row then.
func (g *AggGroup) Render() (types.Row, bool) {
	if g.rows <= 0 {
		return nil, false
	}
	row := make(types.Row, 0, len(g.vals)+len(g.accs))
	row = append(row, g.vals...)
	for _, acc := range g.accs {
		if acc.agg.Kind == plan.AggAvg {
			if acc.wide != 0 || acc.count > maxExactAvgCount {
				return nil, false
			}
			acc.sumFloat = float64(acc.sumInt)
		}
		row = append(row, acc.result())
	}
	return row, true
}

// AggregateRowsState aggregates every group of the input rows. It returns
// the output rows of the affected groups, as AggregateRows over the
// affected rows would, and the fold state of all groups keyed by encoded
// group key — nil when some group holds a value folding cannot represent.
// a must be Foldable.
func AggregateRowsState(a *plan.Aggregate, in []TRow, affected map[string]bool, ctx *Context) ([]TRow, map[string]*AggGroup, error) {
	groups, order, err := aggregateRowGroups(a, in, ctx)
	if err != nil {
		return nil, nil, err
	}
	return finalizeGroups(a, groups, affectedOrder(order, affected)), foldState(groups), nil
}

// AggregateColumnarState is AggregateRowsState over a columnar input.
func AggregateColumnarState(a *plan.Aggregate, in *ColumnarRows, affected map[string]bool, ctx *Context) ([]TRow, map[string]*AggGroup, error) {
	groups, order, err := aggregateBatchGroups(a, in.res, nil, ctx)
	if err != nil {
		return nil, nil, err
	}
	return finalizeGroups(a, groups, affectedOrder(order, affected)), foldState(groups), nil
}

func affectedOrder(order []string, affected map[string]bool) []string {
	out := order[:0:0]
	for _, key := range order {
		if affected[key] {
			out = append(out, key)
		}
	}
	return out
}

// foldState returns the groups as fold state, or nil when a key value or
// a SUM/AVG input was FLOAT or VARIANT.
func foldState(groups map[string]*AggGroup) map[string]*AggGroup {
	for _, g := range groups {
		for _, v := range g.vals {
			if !plainKind(v.Kind()) {
				return nil
			}
		}
		for i := range g.accs {
			if g.accs[i].isFloat {
				return nil
			}
		}
	}
	return groups
}
