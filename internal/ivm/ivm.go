// Package ivm implements query differentiation (§5.5): given a bound
// logical plan and a change interval (a pair of pinned version maps), it
// computes Δ_I(Q) — the set of $ROW_ID/$ACTION change rows transforming the
// query result at the interval start into the result at the interval end.
//
// The differentiation rules mirror the paper's:
//
//   - scans read the storage layer's change interval, skipping
//     data-equivalent versions (§5.5.2);
//   - filters, projections, union-all and flatten distribute over deltas;
//   - inner joins use the asymmetric bilinear rule
//     Δ(Q⋈R) = ΔQ⋈R₁ + Q₀⋈ΔR;
//   - outer joins have a direct derivative that shares boundary
//     evaluations (§5.5.1), with the inner+anti-join expansion kept as an
//     ablation strategy whose subplan duplication grows exponentially;
//   - grouped aggregates of only non-DISTINCT COUNT(*), COUNT(x),
//     COUNT_IF and SUM/AVG over non-float input, grouped by non-float,
//     non-variant keys, fold ΔQ into per-group state (row count,
//     non-NULL counts, exact int64 sums): each touched group's old row is
//     deleted and its new row inserted, with no boundary evaluation. The
//     state (AggState) is one entry per group per aggregate node, held in
//     memory by the caller and tagged with the version map it describes;
//   - every other grouped aggregation, a state miss (no state yet, as on
//     the first incremental refresh after creation, recovery or a full
//     recompute; a tag other than the interval start; a float value in
//     the delta), and DISTINCT recompute affected groups:
//     Δγ(Q) = −γ(Q₀ ⋉ₖ ΔQ) + γ(Q₁ ⋉ₖ ΔQ), reseeding a foldable
//     aggregate's state from the Q₁ side;
//   - window functions recompute affected partitions:
//     Δξ(Q) = π₋(ξ(Q₀ ⋉ₖ ΔQ)) + π₊(ξ(Q₁ ⋉ₖ ΔQ)) (§5.5.1).
package ivm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// VersionMap pins a version sequence per storage table ID.
type VersionMap map[int64]int64

// Clone copies the map.
func (vm VersionMap) Clone() VersionMap {
	out := make(VersionMap, len(vm))
	for k, v := range vm {
		out[k] = v
	}
	return out
}

// Interval is a change interval: the version frontier at the previous
// refresh and at the current refresh (§5.3).
type Interval struct {
	From VersionMap
	To   VersionMap
}

// Stats counts the work a differentiation performed; the ablation benches
// compare strategies with these rather than wall-clock noise.
type Stats struct {
	// SubplanDeltaEvals counts recursive Delta computations of child
	// subplans.
	SubplanDeltaEvals int64
	// SubplanSnapshotEvals counts boundary (as-of) evaluations of child
	// subplans.
	SubplanSnapshotEvals int64
	// PartitionsRecomputed counts window partitions recomputed.
	PartitionsRecomputed int64
	// PartitionsTotal counts window partitions present at the interval
	// end (for comparison with PartitionsRecomputed).
	PartitionsTotal int64
	// GroupsRecomputed counts aggregate groups recomputed from boundary
	// snapshots.
	GroupsRecomputed int64
	// GroupsFolded counts aggregate groups maintained by folding the
	// input delta into per-group state, without boundary snapshots.
	GroupsFolded int64
	// RowsEmitted counts change rows produced before consolidation.
	RowsEmitted int64
	// ConsolidationElided counts refreshes that skipped the final
	// change-consolidation step because the plan structure and an
	// insert-only delta guarantee no duplicate ($ROW_ID, $ACTION) pairs
	// (§5.5.2).
	ConsolidationElided int64
}

// Env carries the differentiation environment.
type Env struct {
	Now      time.Time
	Counters *exec.Counters
	Stats    *Stats

	// Parallelism bounds how many independent subplan evaluations one
	// differentiation may run concurrently: the two deltas of a join, its
	// boundary snapshots, and union-all branches are data-independent and
	// evaluate in parallel when > 1. 0 or 1 keeps differentiation fully
	// sequential. The change-set content is identical either way.
	Parallelism int

	// ExpandOuterJoins switches to the inner+anti-join expansion strategy
	// for outer-join derivatives (the ablation of §5.5.1).
	ExpandOuterJoins bool
	// FullWindowRecompute disables the changed-partition optimization and
	// recomputes every window partition (ablation).
	FullWindowRecompute bool

	// Span, when non-nil, opens a named tracing span and returns its
	// closer. The hook keeps ivm free of a trace dependency; the
	// controller wires it to the engine's span recorder. Implementations
	// must be safe for concurrent use — parallel delta branches share it.
	Span func(name string) func()

	// Columnar routes boundary-snapshot evaluations through the
	// executor's columnar fast path: scans resolve to shared,
	// version-cached batches instead of per-call row-map copies. Change
	// sets are identical either way (the differential harness enforces
	// it).
	Columnar bool

	// AggState, when non-nil, holds the per-group state that lets
	// foldable aggregates fold their input delta instead of recomputing
	// affected groups. Delta reads the installed state and stages its
	// updates there; the caller installs them after its merge commits.
	// Nil keeps every aggregate on the recompute rule.
	AggState *AggState

	// sem caps in-flight parallel branches across the whole plan, so a
	// deep join tree cannot fan out more than Parallelism-1 extra
	// goroutines. Created once at the Delta entry point and shared by
	// child environments.
	sem chan struct{}
	// aggIDs identifies the plan's aggregate nodes in AggState; set at
	// the Delta entry point when AggState is non-nil.
	aggIDs map[*plan.Aggregate]int
}

func (e *Env) stats(f func(*Stats)) {
	if e.Stats != nil {
		f(e.Stats)
	}
}

// child derives an Env for one parallel branch: same clock and strategy
// flags, fresh counter and stat sinks so concurrent branches never write
// to shared memory. merge folds the child back after the branch joins.
func (e *Env) child() *Env {
	c := &Env{
		Now:                 e.Now,
		Parallelism:         e.Parallelism,
		ExpandOuterJoins:    e.ExpandOuterJoins,
		FullWindowRecompute: e.FullWindowRecompute,
		Span:                e.Span,
		Columnar:            e.Columnar,
		AggState:            e.AggState,
		sem:                 e.sem,
		aggIDs:              e.aggIDs,
	}
	if e.Counters != nil {
		c.Counters = &exec.Counters{}
	}
	if e.Stats != nil {
		c.Stats = &Stats{}
	}
	return c
}

func (e *Env) merge(c *Env) {
	if e.Counters != nil && c.Counters != nil {
		e.Counters.Merge(c.Counters)
	}
	if e.Stats != nil && c.Stats != nil {
		e.Stats.merge(c.Stats)
	}
}

func (s *Stats) merge(o *Stats) {
	s.SubplanDeltaEvals += o.SubplanDeltaEvals
	s.SubplanSnapshotEvals += o.SubplanSnapshotEvals
	s.PartitionsRecomputed += o.PartitionsRecomputed
	s.PartitionsTotal += o.PartitionsTotal
	s.GroupsRecomputed += o.GroupsRecomputed
	s.GroupsFolded += o.GroupsFolded
	s.RowsEmitted += o.RowsEmitted
	s.ConsolidationElided += o.ConsolidationElided
}

// runPar executes independent differentiation tasks, concurrently when
// the environment has spare parallelism tokens. Each concurrent task
// gets a child Env (folded back afterwards); tasks that find no spare
// token run inline on the parent. Tasks write to distinct outputs and
// errors surface in task order, so the result is identical to running
// the tasks sequentially.
func runPar(env *Env, tasks ...func(*Env) error) error {
	if len(tasks) == 0 {
		return nil
	}
	if env.Parallelism <= 1 || env.sem == nil || len(tasks) == 1 {
		for _, task := range tasks {
			if err := task(env); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	children := make([]*Env, len(tasks))
	var wg sync.WaitGroup
	for i := 1; i < len(tasks); i++ {
		select {
		case env.sem <- struct{}{}:
			child := env.child()
			children[i] = child
			wg.Add(1)
			go func(i int, child *Env) {
				defer wg.Done()
				defer func() { <-env.sem }()
				defer func() {
					if p := recover(); p != nil {
						errs[i] = fmt.Errorf("ivm: panic in parallel delta branch: %v\n%s", p, debug.Stack())
					}
				}()
				errs[i] = tasks[i](child)
			}(i, child)
		default:
			// Pool exhausted: run inline. Inline tasks share the parent
			// env but never run concurrently with each other, and the
			// spawned branches write only to their children.
			errs[i] = tasks[i](env)
		}
	}
	errs[0] = tasks[0](env)
	wg.Wait()
	for _, child := range children {
		if child != nil {
			env.merge(child)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ErrNotIncrementalizable reports a plan feature that has no derivative;
// callers fall back to full refresh (§3.3.2).
var ErrNotIncrementalizable = errors.New("ivm: plan is not incrementalizable")

// Incrementalizable checks whether every operator in the plan has a
// derivative, mirroring the supported set in §3.3.2: projections, filters,
// union-all, inner and outer joins, LATERAL FLATTEN, distinct and grouped
// aggregations, and partitioned window functions. Scalar (ungrouped)
// aggregates, unpartitioned windows, ORDER BY and LIMIT force full
// refreshes.
func Incrementalizable(n plan.Node) error {
	var bad error
	plan.Walk(n, func(node plan.Node) {
		if bad != nil {
			return
		}
		switch x := node.(type) {
		case *plan.Sort:
			bad = fmt.Errorf("%w: ORDER BY", ErrNotIncrementalizable)
		case *plan.Limit:
			bad = fmt.Errorf("%w: LIMIT", ErrNotIncrementalizable)
		case *plan.Aggregate:
			if len(x.GroupBy) == 0 {
				bad = fmt.Errorf("%w: scalar aggregate", ErrNotIncrementalizable)
			}
		case *plan.Window:
			if len(x.PartitionBy) == 0 {
				bad = fmt.Errorf("%w: unpartitioned window function", ErrNotIncrementalizable)
			}
		}
	})
	return bad
}

// EvalAsOf evaluates the plan with every scan pinned to the version map.
func EvalAsOf(n plan.Node, vm VersionMap, env *Env) ([]exec.TRow, error) {
	if env.Span != nil {
		defer env.Span("ivm.eval")()
	}
	return exec.Run(n, pinnedCtx(vm, env))
}

// pinnedCtx builds the execution context for evaluating a plan with
// every scan pinned to the version map, routing scans through the
// columnar batch path when the environment enables it.
func pinnedCtx(vm VersionMap, env *Env) *exec.Context {
	ctx := &exec.Context{
		RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
			seq, ok := vm[s.Table.ID()]
			if !ok {
				return nil, fmt.Errorf("ivm: no pinned version for table %s (id %d)", s.Name, s.Table.ID())
			}
			return s.Table.Rows(seq)
		},
		Now:      env.Now,
		Counters: env.Counters,
	}
	if env.Columnar {
		ctx.BatchOf = func(s *plan.Scan) (*types.Batch, error) {
			seq, ok := vm[s.Table.ID()]
			if !ok {
				return nil, fmt.Errorf("ivm: no pinned version for table %s (id %d)", s.Name, s.Table.ID())
			}
			return s.Table.Batch(seq)
		}
	}
	return ctx
}

// Delta computes the consolidated change set of the plan over the
// interval. When the delta is insert-only and the plan's structure
// guarantees that differentiation introduces no redundant actions, the
// final change-consolidation step is skipped — the §5.5.2 optimization for
// the extremely common insert-only workloads.
func Delta(n plan.Node, iv Interval, env *Env) (delta.ChangeSet, error) {
	if env.Parallelism > 1 && env.sem == nil {
		env.sem = make(chan struct{}, env.Parallelism-1)
	}
	if env.Span != nil {
		defer env.Span("ivm.delta")()
	}
	if env.AggState != nil {
		env.AggState.Discard()
		env.aggIDs = aggregateIDs(n)
	}
	rows, err := deltaRec(n, iv, env)
	if err != nil {
		return delta.ChangeSet{}, err
	}
	var cs delta.ChangeSet
	insertOnly := true
	for _, sr := range rows {
		cs.Add(delta.Change{RowID: sr.ID, Action: sr.Action, Row: sr.Row})
		if sr.Action == delta.Delete {
			insertOnly = false
		}
	}
	env.stats(func(s *Stats) { s.RowsEmitted += int64(len(cs.Changes)) })
	if insertOnly && ConsolidationFree(n) {
		env.stats(func(s *Stats) { s.ConsolidationElided++ })
		return cs, nil
	}
	return cs.ConsolidateSigned(), nil
}

// ConsolidationFree reports whether the plan's structure guarantees that
// an insert-only delta contains no duplicate ($ROW_ID, $ACTION) pairs, so
// the change-consolidation step can be skipped (§5.5.2). Linear operators
// preserve source row IDs injectively; inner joins combine both sides'
// IDs, and a row pair where both sides are new appears in exactly one
// bilinear term. Aggregates, DISTINCT, windows and outer joins emit
// delete+insert pairs and always consolidate.
func ConsolidationFree(n plan.Node) bool {
	safe := true
	plan.Walk(n, func(node plan.Node) {
		switch x := node.(type) {
		case *plan.Scan, *plan.Filter, *plan.Project, *plan.UnionAll,
			*plan.Flatten, *plan.Values:
		case *plan.Join:
			if x.Type != sql.JoinInner {
				safe = false
			}
		default:
			safe = false
		}
	})
	return safe
}

// signedRow is a change row during differentiation.
type signedRow struct {
	ID     string
	Row    types.Row
	Action delta.Action
}

func insertsOf(rows []exec.TRow) []signedRow {
	out := make([]signedRow, len(rows))
	for i, r := range rows {
		out[i] = signedRow{ID: r.ID, Row: r.Row, Action: delta.Insert}
	}
	return out
}

func trows(rows []signedRow) []exec.TRow {
	out := make([]exec.TRow, len(rows))
	for i, r := range rows {
		out[i] = exec.TRow{ID: r.ID, Row: r.Row}
	}
	return out
}

func deltaRec(n plan.Node, iv Interval, env *Env) ([]signedRow, error) {
	env.stats(func(s *Stats) { s.SubplanDeltaEvals++ })
	if env.Span != nil {
		defer env.Span("delta." + deltaOpName(n))()
	}
	switch x := n.(type) {
	case *plan.Scan:
		return deltaScan(x, iv, env)
	case *plan.Filter:
		return deltaFilter(x, iv, env)
	case *plan.Project:
		return deltaProject(x, iv, env)
	case *plan.UnionAll:
		return deltaUnion(x, iv, env)
	case *plan.Flatten:
		return deltaFlatten(x, iv, env)
	case *plan.Join:
		if x.Type == sql.JoinInner {
			return deltaInnerJoin(x, iv, env)
		}
		if env.ExpandOuterJoins {
			return deltaOuterJoinExpanded(x, iv, env)
		}
		return deltaOuterJoinDirect(x, iv, env)
	case *plan.Aggregate:
		return deltaAggregate(x, iv, env)
	case *plan.Distinct:
		return deltaDistinct(x, iv, env)
	case *plan.Window:
		return deltaWindow(x, iv, env)
	case *plan.Values:
		return nil, nil // static
	default:
		return nil, fmt.Errorf("%w: operator %T", ErrNotIncrementalizable, n)
	}
}

func snapshot(n plan.Node, vm VersionMap, env *Env) ([]exec.TRow, error) {
	env.stats(func(s *Stats) { s.SubplanSnapshotEvals++ })
	return EvalAsOf(n, vm, env)
}

// deltaOpName gives each differentiated operator a short span-name suffix.
func deltaOpName(n plan.Node) string {
	switch x := n.(type) {
	case *plan.Scan:
		return "scan"
	case *plan.Filter:
		return "filter"
	case *plan.Project:
		return "project"
	case *plan.UnionAll:
		return "union"
	case *plan.Flatten:
		return "flatten"
	case *plan.Join:
		if x.Type == sql.JoinInner {
			return "inner_join"
		}
		return "outer_join"
	case *plan.Aggregate:
		return "aggregate"
	case *plan.Distinct:
		return "distinct"
	case *plan.Window:
		return "window"
	case *plan.Values:
		return "values"
	default:
		return "op"
	}
}

// snapshotBoundaries evaluates a subplan at both interval boundaries —
// the recompute-affected-groups rules all need the pair — in parallel
// when the environment allows.
func snapshotBoundaries(n plan.Node, iv Interval, env *Env) (q0, q1 []exec.TRow, err error) {
	err = runPar(env,
		func(e *Env) error {
			var err error
			q0, err = snapshot(n, iv.From, e)
			return err
		},
		func(e *Env) error {
			var err error
			q1, err = snapshot(n, iv.To, e)
			return err
		})
	return q0, q1, err
}

// ---------------------------------------------------------------------------
// leaf and linear rules
// ---------------------------------------------------------------------------

func deltaScan(s *plan.Scan, iv Interval, env *Env) ([]signedRow, error) {
	from, ok := iv.From[s.Table.ID()]
	if !ok {
		return nil, fmt.Errorf("ivm: interval missing start version for table %s", s.Name)
	}
	to, ok := iv.To[s.Table.ID()]
	if !ok {
		return nil, fmt.Errorf("ivm: interval missing end version for table %s", s.Name)
	}
	cs, err := s.Table.Changes(from, to)
	if err != nil {
		var over *storage.ErrOverwritten
		if errors.As(err, &over) {
			// The caller must REINITIALIZE (§5.4).
			return nil, fmt.Errorf("%w: %v", ErrSourceOverwritten, err)
		}
		return nil, err
	}
	out := make([]signedRow, 0, cs.Len())
	for _, c := range cs.Changes {
		out = append(out, signedRow{ID: c.RowID, Row: c.Row, Action: c.Action})
	}
	return out, nil
}

// ErrSourceOverwritten signals that an upstream table was overwritten or
// replaced inside the change interval, invalidating incremental results;
// the refresh controller reacts with a REINITIALIZE action (§3.3.2).
var ErrSourceOverwritten = errors.New("ivm: source overwritten within change interval")

func deltaFilter(f *plan.Filter, iv Interval, env *Env) ([]signedRow, error) {
	in, err := deltaRec(f.Input, iv, env)
	if err != nil {
		return nil, err
	}
	ev := &plan.EvalContext{Now: env.Now}
	out := in[:0:0]
	for _, sr := range in {
		ok, err := plan.EvalBool(f.Pred, sr.Row, ev)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, sr)
		}
	}
	return out, nil
}

func deltaProject(p *plan.Project, iv Interval, env *Env) ([]signedRow, error) {
	in, err := deltaRec(p.Input, iv, env)
	if err != nil {
		return nil, err
	}
	ev := &plan.EvalContext{Now: env.Now}
	out := make([]signedRow, len(in))
	for i, sr := range in {
		row := make(types.Row, len(p.Exprs))
		for j, e := range p.Exprs {
			v, err := plan.Eval(e, sr.Row, ev)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		out[i] = signedRow{ID: sr.ID, Row: row, Action: sr.Action}
	}
	return out, nil
}

func deltaUnion(u *plan.UnionAll, iv Interval, env *Env) ([]signedRow, error) {
	// Branch deltas are independent change sets; evaluate them in
	// parallel and concatenate in branch order.
	branches := make([][]signedRow, len(u.Inputs))
	tasks := make([]func(*Env) error, len(u.Inputs))
	for i := range u.Inputs {
		tasks[i] = func(e *Env) error {
			rows, err := deltaRec(u.Inputs[i], iv, e)
			branches[i] = rows
			return err
		}
	}
	if err := runPar(env, tasks...); err != nil {
		return nil, err
	}
	var out []signedRow
	for i, rows := range branches {
		for _, sr := range rows {
			out = append(out, signedRow{
				ID: exec.UnionBranchID(i, sr.ID), Row: sr.Row, Action: sr.Action,
			})
		}
	}
	return out, nil
}

func deltaFlatten(f *plan.Flatten, iv Interval, env *Env) ([]signedRow, error) {
	in, err := deltaRec(f.Input, iv, env)
	if err != nil {
		return nil, err
	}
	var out []signedRow
	// Flatten inserts and deletes separately: each preserves action.
	for _, action := range []delta.Action{delta.Delete, delta.Insert} {
		var part []exec.TRow
		for _, sr := range in {
			if sr.Action == action {
				part = append(part, exec.TRow{ID: sr.ID, Row: sr.Row})
			}
		}
		if len(part) == 0 {
			continue
		}
		flat, err := exec.FlattenRows(f, part, &exec.Context{Now: env.Now})
		if err != nil {
			return nil, err
		}
		for _, tr := range flat {
			out = append(out, signedRow{ID: tr.ID, Row: tr.Row, Action: action})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------------

// innerOf returns a copy of the join node with INNER semantics, reusing
// keys and residual.
func innerOf(j *plan.Join) *plan.Join {
	return plan.NewJoin(sql.JoinInner, j.L, j.R, j.LeftKeys, j.RightKeys, j.Residual)
}

// joinSignedLeft joins signed left rows against unsigned right rows,
// propagating the left action.
func joinSignedLeft(j *plan.Join, left []signedRow, right []exec.TRow, env *Env) ([]signedRow, error) {
	inner := innerOf(j)
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	var out []signedRow
	for _, action := range []delta.Action{delta.Delete, delta.Insert} {
		var part []exec.TRow
		for _, sr := range left {
			if sr.Action == action {
				part = append(part, exec.TRow{ID: sr.ID, Row: sr.Row})
			}
		}
		if len(part) == 0 {
			continue
		}
		joined, err := exec.JoinRows(inner, part, right, ctx)
		if err != nil {
			return nil, err
		}
		for _, tr := range joined {
			out = append(out, signedRow{ID: tr.ID, Row: tr.Row, Action: action})
		}
	}
	return out, nil
}

// joinSignedRight joins unsigned left rows against signed right rows.
func joinSignedRight(j *plan.Join, left []exec.TRow, right []signedRow, env *Env) ([]signedRow, error) {
	inner := innerOf(j)
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	var out []signedRow
	for _, action := range []delta.Action{delta.Delete, delta.Insert} {
		var part []exec.TRow
		for _, sr := range right {
			if sr.Action == action {
				part = append(part, exec.TRow{ID: sr.ID, Row: sr.Row})
			}
		}
		if len(part) == 0 {
			continue
		}
		joined, err := exec.JoinRows(inner, left, part, ctx)
		if err != nil {
			return nil, err
		}
		for _, tr := range joined {
			out = append(out, signedRow{ID: tr.ID, Row: tr.Row, Action: action})
		}
	}
	return out, nil
}

// deltaInnerJoin implements Δ(Q⋈R) = ΔQ⋈R₁ + Q₀⋈ΔR. The two side
// deltas are independent, as are the two bilinear terms once the deltas
// are known; each pair evaluates in parallel under the Env's
// parallelism budget.
func deltaInnerJoin(j *plan.Join, iv Interval, env *Env) ([]signedRow, error) {
	var dq, dr []signedRow
	err := runPar(env,
		func(e *Env) error {
			var err error
			dq, err = deltaRec(j.L, iv, e)
			return err
		},
		func(e *Env) error {
			var err error
			dr, err = deltaRec(j.R, iv, e)
			return err
		})
	if err != nil {
		return nil, err
	}
	var term1, term2 []signedRow
	var tasks []func(*Env) error
	if len(dq) > 0 {
		tasks = append(tasks, func(e *Env) error {
			r1, err := snapshot(j.R, iv.To, e)
			if err != nil {
				return err
			}
			term1, err = joinSignedLeft(j, dq, r1, e)
			return err
		})
	}
	if len(dr) > 0 {
		tasks = append(tasks, func(e *Env) error {
			q0, err := snapshot(j.L, iv.From, e)
			if err != nil {
				return err
			}
			term2, err = joinSignedRight(j, q0, dr, e)
			return err
		})
	}
	if err := runPar(env, tasks...); err != nil {
		return nil, err
	}
	return append(term1, term2...), nil
}

// matchedIDs runs the inner join of the given left rows against right rows
// and returns the set of left row IDs that produced at least one output.
func matchedIDs(j *plan.Join, left, right []exec.TRow, env *Env, leftSide bool) (map[string]bool, error) {
	inner := innerOf(j)
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	var joined []exec.TRow
	var err error
	joined, err = exec.JoinRows(inner, left, right, ctx)
	if err != nil {
		return nil, err
	}
	// Recover which input rows matched by re-deriving the input ID from
	// the combined ID ("(lid*rid)").
	out := make(map[string]bool)
	for _, tr := range joined {
		lid, rid, ok := exec.SplitJoinID(tr.ID)
		if !ok {
			continue
		}
		if leftSide {
			out[lid] = true
		} else {
			out[rid] = true
		}
	}
	return out, nil
}

// nullExtensionDelta computes the change rows for the null-extended side
// of an outer join, restricted to potentially affected rows.
//
// preserved: the preserved side's rows at both boundaries (q ∈ Q₀, Q₁).
// affected: IDs of preserved-side rows whose null-extension status may
// have changed. other0/other1: the other side's rows at the boundaries.
func nullExtensionDelta(
	j *plan.Join,
	preservedLeft bool,
	p0, p1 map[string]exec.TRow,
	affected map[string]bool,
	other0, other1 []exec.TRow,
	env *Env,
) ([]signedRow, error) {
	// Collect the affected rows present at each boundary.
	var rows0, rows1 []exec.TRow
	for id := range affected {
		if tr, ok := p0[id]; ok {
			rows0 = append(rows0, tr)
		}
		if tr, ok := p1[id]; ok {
			rows1 = append(rows1, tr)
		}
	}
	var m0, m1 map[string]bool
	var err error
	if preservedLeft {
		m0, err = matchedIDs(j, rows0, other0, env, true)
		if err != nil {
			return nil, err
		}
		m1, err = matchedIDs(j, rows1, other1, env, true)
		if err != nil {
			return nil, err
		}
	} else {
		m0, err = matchedIDs(j, other0, rows0, env, false)
		if err != nil {
			return nil, err
		}
		m1, err = matchedIDs(j, other1, rows1, env, false)
		if err != nil {
			return nil, err
		}
	}

	lWidth := j.L.Schema().Len()
	rWidth := j.R.Schema().Len()
	nullLeft := make(types.Row, lWidth)
	nullRight := make(types.Row, rWidth)

	extRow := func(tr exec.TRow) (string, types.Row) {
		if preservedLeft {
			return exec.JoinRowID(tr.ID, "-"), tr.Row.Concat(nullRight)
		}
		return exec.JoinRowID("-", tr.ID), nullLeft.Concat(tr.Row)
	}

	var out []signedRow
	for id := range affected {
		tr0, in0 := p0[id]
		tr1, in1 := p1[id]
		hadExt := in0 && !m0[id]
		hasExt := in1 && !m1[id]
		if hadExt {
			rid, row := extRow(tr0)
			out = append(out, signedRow{ID: rid, Row: row, Action: delta.Delete})
		}
		if hasExt {
			rid, row := extRow(tr1)
			out = append(out, signedRow{ID: rid, Row: row, Action: delta.Insert})
		}
		// Equal delete+insert pairs cancel during consolidation.
		_ = hadExt
		_ = hasExt
	}
	return out, nil
}

// deltaOuterJoinDirect is the direct outer-join derivative (§5.5.1): the
// inner-join delta plus null-extension maintenance, sharing each boundary
// evaluation across terms.
func deltaOuterJoinDirect(j *plan.Join, iv Interval, env *Env) ([]signedRow, error) {
	var dq, dr []signedRow
	err := runPar(env,
		func(e *Env) error {
			var err error
			dq, err = deltaRec(j.L, iv, e)
			return err
		},
		func(e *Env) error {
			var err error
			dr, err = deltaRec(j.R, iv, e)
			return err
		})
	if err != nil {
		return nil, err
	}
	if len(dq) == 0 && len(dr) == 0 {
		return nil, nil
	}

	// Boundary evaluations, shared by every term below; the four
	// snapshots are independent as-of evaluations.
	var q0, q1, r0, r1 []exec.TRow
	err = runPar(env,
		func(e *Env) error {
			var err error
			q0, err = snapshot(j.L, iv.From, e)
			return err
		},
		func(e *Env) error {
			var err error
			q1, err = snapshot(j.L, iv.To, e)
			return err
		},
		func(e *Env) error {
			var err error
			r0, err = snapshot(j.R, iv.From, e)
			return err
		},
		func(e *Env) error {
			var err error
			r1, err = snapshot(j.R, iv.To, e)
			return err
		})
	if err != nil {
		return nil, err
	}

	// Inner part: ΔQ⋈R₁ + Q₀⋈ΔR.
	out, err := joinSignedLeft(j, dq, r1, env)
	if err != nil {
		return nil, err
	}
	term2, err := joinSignedRight(j, q0, dr, env)
	if err != nil {
		return nil, err
	}
	out = append(out, term2...)

	byID := func(rows []exec.TRow) map[string]exec.TRow {
		m := make(map[string]exec.TRow, len(rows))
		for _, tr := range rows {
			m[tr.ID] = tr
		}
		return m
	}

	if j.Type == sql.JoinLeft || j.Type == sql.JoinFull {
		affected, err := affectedPreservedIDs(j, dq, dr, q0, q1, true, env)
		if err != nil {
			return nil, err
		}
		ext, err := nullExtensionDelta(j, true, byID(q0), byID(q1), affected, r0, r1, env)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		affected, err := affectedPreservedIDs(j, dr, dq, r0, r1, false, env)
		if err != nil {
			return nil, err
		}
		ext, err := nullExtensionDelta(j, false, byID(r0), byID(r1), affected, q0, q1, env)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	return out, nil
}

// affectedPreservedIDs computes the preserved-side row IDs whose
// null-extension status may have changed: rows in the preserved side's own
// delta, plus rows whose join key appears in the other side's delta.
func affectedPreservedIDs(
	j *plan.Join,
	ownDelta, otherDelta []signedRow,
	p0, p1 []exec.TRow,
	preservedLeft bool,
	env *Env,
) (map[string]bool, error) {
	affected := make(map[string]bool, len(ownDelta))
	for _, sr := range ownDelta {
		affected[sr.ID] = true
	}
	if len(otherDelta) == 0 {
		return affected, nil
	}
	ownKeys, otherKeys := j.LeftKeys, j.RightKeys
	if !preservedLeft {
		ownKeys, otherKeys = j.RightKeys, j.LeftKeys
	}
	if len(ownKeys) == 0 {
		// No equi-keys: any change on the other side can affect any
		// preserved row.
		for _, tr := range p0 {
			affected[tr.ID] = true
		}
		for _, tr := range p1 {
			affected[tr.ID] = true
		}
		return affected, nil
	}
	changedKeys := make(map[string]bool, len(otherDelta))
	for _, sr := range otherDelta {
		key, ok, err := exec.EvalKey(otherKeys, sr.Row, env.Now)
		if err != nil {
			return nil, err
		}
		if ok {
			changedKeys[key] = true
		}
	}
	mark := func(rows []exec.TRow) error {
		for _, tr := range rows {
			key, ok, err := exec.EvalKey(ownKeys, tr.Row, env.Now)
			if err != nil {
				return err
			}
			if ok && changedKeys[key] {
				affected[tr.ID] = true
			}
		}
		return nil
	}
	if err := mark(p0); err != nil {
		return nil, err
	}
	if err := mark(p1); err != nil {
		return nil, err
	}
	return affected, nil
}

// deltaOuterJoinExpanded is the ablation strategy: rewrite the outer join
// as inner join ∪ null-extended anti-join and differentiate each term
// independently. Terms re-differentiate and re-evaluate the shared
// subplans, so nested outer joins duplicate work exponentially — the
// behaviour §5.5.1 reports as motivating the direct derivative.
func deltaOuterJoinExpanded(j *plan.Join, iv Interval, env *Env) ([]signedRow, error) {
	// Term 1: inner join delta (its own recursive differentiation).
	out, err := deltaInnerJoin(j, iv, env)
	if err != nil {
		return nil, err
	}
	// Terms 2/3: anti-join deltas, recomputing everything per side.
	if j.Type == sql.JoinLeft || j.Type == sql.JoinFull {
		ext, err := deltaAntiJoinRecompute(j, iv, env, true)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		ext, err := deltaAntiJoinRecompute(j, iv, env, false)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	return out, nil
}

// deltaAntiJoinRecompute differentiates the null-extension term by
// evaluating the anti-join at both boundaries and diffing — including its
// own recursive delta of the preserved side to find affected rows, which
// duplicates the subplan evaluations already done by the inner term.
func deltaAntiJoinRecompute(j *plan.Join, iv Interval, env *Env, preservedLeft bool) ([]signedRow, error) {
	// Redundant recursive differentiation (the expansion's cost).
	if preservedLeft {
		if _, err := deltaRec(j.L, iv, env); err != nil {
			return nil, err
		}
		if _, err := deltaRec(j.R, iv, env); err != nil {
			return nil, err
		}
	} else {
		if _, err := deltaRec(j.R, iv, env); err != nil {
			return nil, err
		}
		if _, err := deltaRec(j.L, iv, env); err != nil {
			return nil, err
		}
	}
	antiAt := func(vm VersionMap) (map[string]exec.TRow, error) {
		var pres, other []exec.TRow
		var err error
		if preservedLeft {
			pres, err = snapshot(j.L, vm, env)
			if err != nil {
				return nil, err
			}
			other, err = snapshot(j.R, vm, env)
		} else {
			pres, err = snapshot(j.R, vm, env)
			if err != nil {
				return nil, err
			}
			other, err = snapshot(j.L, vm, env)
		}
		if err != nil {
			return nil, err
		}
		var matched map[string]bool
		if preservedLeft {
			matched, err = matchedIDs(j, pres, other, env, true)
		} else {
			matched, err = matchedIDs(j, other, pres, env, false)
		}
		if err != nil {
			return nil, err
		}
		out := make(map[string]exec.TRow)
		for _, tr := range pres {
			if !matched[tr.ID] {
				out[tr.ID] = tr
			}
		}
		return out, nil
	}
	before, err := antiAt(iv.From)
	if err != nil {
		return nil, err
	}
	after, err := antiAt(iv.To)
	if err != nil {
		return nil, err
	}

	lWidth := j.L.Schema().Len()
	rWidth := j.R.Schema().Len()
	nullLeft := make(types.Row, lWidth)
	nullRight := make(types.Row, rWidth)
	extend := func(tr exec.TRow) (string, types.Row) {
		if preservedLeft {
			return exec.JoinRowID(tr.ID, "-"), tr.Row.Concat(nullRight)
		}
		return exec.JoinRowID("-", tr.ID), nullLeft.Concat(tr.Row)
	}

	var out []signedRow
	for id, tr := range before {
		if cur, ok := after[id]; ok && cur.Row.Equal(tr.Row) {
			continue
		}
		rid, row := extend(tr)
		out = append(out, signedRow{ID: rid, Row: row, Action: delta.Delete})
	}
	for id, tr := range after {
		if prev, ok := before[id]; ok && prev.Row.Equal(tr.Row) {
			continue
		}
		rid, row := extend(tr)
		out = append(out, signedRow{ID: rid, Row: row, Action: delta.Insert})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// aggregation, distinct, window
// ---------------------------------------------------------------------------

// deltaAggregate maintains a grouped aggregate. Foldable aggregates
// (exec.Foldable) whose state describes the interval start fold the input
// delta into per-group state: each touched group's old row is deleted
// and its new row inserted, with no boundary evaluation. Everything else,
// and every state miss, recomputes affected groups:
// Δγ(Q) = −γ(Q₀ ⋉ₖ keys(ΔQ)) + γ(Q₁ ⋉ₖ keys(ΔQ)),
// reseeding a foldable aggregate's state from the Q₁ side.
func deltaAggregate(a *plan.Aggregate, iv Interval, env *Env) ([]signedRow, error) {
	din, err := deltaRec(a.Input, iv, env)
	if err != nil {
		return nil, err
	}
	fold := env.AggState != nil && exec.Foldable(a)
	node := env.aggIDs[a]
	var state map[string]*exec.AggGroup
	if fold {
		state = env.AggState.lookup(node, iv.From)
	}
	if len(din) == 0 {
		if state != nil {
			// Unchanged input: the state describes the interval end too.
			env.AggState.stage(node, aggUpdate{tag: iv.To})
		}
		return nil, nil
	}
	if state != nil {
		if out, changed, ok := foldAggregate(a, state, din, env); ok {
			env.AggState.stage(node, aggUpdate{tag: iv.To, groups: changed})
			env.stats(func(s *Stats) { s.GroupsFolded += int64(len(changed)) })
			if env.Counters != nil {
				// The fold reads each input change once; charge those
				// rows as the recompute rule is charged for its
				// snapshot rows, so refresh cost tracks the change.
				env.Counters.ScanRows += int64(len(din))
			}
			return out, nil
		}
	}

	affected := make(map[string]bool)
	for _, sr := range din {
		key, _, err := exec.EvalKey(a.GroupBy, sr.Row, env.Now)
		if err != nil {
			return nil, err
		}
		affected[key] = true
	}
	old, cur, n0, n1, seed, err := aggregateBoundaries(a, iv, affected, fold, env)
	if err != nil {
		return nil, err
	}
	env.stats(func(s *Stats) { s.GroupsRecomputed += int64(len(affected)) })
	if fold {
		if seed == nil {
			env.AggState.stage(node, aggUpdate{})
		} else {
			env.AggState.stage(node, aggUpdate{tag: iv.To, groups: seed, replace: true})
		}
	}

	// Scalar aggregates materialize a row even over empty input; only
	// treat boundary rows as present when their group actually had input
	// rows, except for the genuine global aggregate.
	var out []signedRow
	for _, tr := range old {
		if len(a.GroupBy) == 0 && n0 == 0 {
			continue
		}
		out = append(out, signedRow{ID: tr.ID, Row: tr.Row, Action: delta.Delete})
	}
	for _, tr := range cur {
		if len(a.GroupBy) == 0 && n1 == 0 {
			continue
		}
		out = append(out, signedRow{ID: tr.ID, Row: tr.Row, Action: delta.Insert})
	}
	return out, nil
}

// aggregateBoundaries computes the affected-group aggregations of both
// boundary snapshots of the aggregate's input. On the columnar path the
// boundary subplans evaluate to batches and the affected-group
// restriction fuses into the vectorized aggregation loop; otherwise the
// snapshots materialize and a row-at-a-time restrict feeds
// AggregateRows. n0/n1 count the restricted input rows (the scalar
// aggregate guard's signal; the columnar path handles grouped
// aggregates only, where the guard is vacuous). With seed set (a
// foldable aggregate), the end side aggregates every group and returns
// their fold state, nil when some group cannot be folded.
func aggregateBoundaries(a *plan.Aggregate, iv Interval, affected map[string]bool, seed bool, env *Env) (old, cur []exec.TRow, n0, n1 int, state map[string]*exec.AggGroup, err error) {
	if len(a.GroupBy) > 0 && env.Columnar {
		var h0, h1 bool
		err := runPar(env,
			func(e *Env) error {
				ctx := pinnedCtx(iv.From, e)
				cr, handled, err := exec.RunColumnar(a.Input, ctx)
				if err != nil || !handled {
					return err
				}
				h0 = true
				e.stats(func(s *Stats) { s.SubplanSnapshotEvals++ })
				old, err = exec.AggregateColumnar(a, cr, affected, ctx)
				return err
			},
			func(e *Env) error {
				ctx := pinnedCtx(iv.To, e)
				cr, handled, err := exec.RunColumnar(a.Input, ctx)
				if err != nil || !handled {
					return err
				}
				h1 = true
				e.stats(func(s *Stats) { s.SubplanSnapshotEvals++ })
				if seed {
					cur, state, err = exec.AggregateColumnarState(a, cr, affected, ctx)
				} else {
					cur, err = exec.AggregateColumnar(a, cr, affected, ctx)
				}
				return err
			})
		if err != nil {
			return nil, nil, 0, 0, nil, err
		}
		if h0 && h1 {
			return old, cur, 0, 0, state, nil
		}
		// Not batchable (or columnar off): fall through to the row path.
		old, cur, state = nil, nil, nil
	}

	q0, q1, err := snapshotBoundaries(a.Input, iv, env)
	if err != nil {
		return nil, nil, 0, 0, nil, err
	}
	restrict := func(rows []exec.TRow) ([]exec.TRow, error) {
		var out []exec.TRow
		for _, tr := range rows {
			key, _, err := exec.EvalKey(a.GroupBy, tr.Row, env.Now)
			if err != nil {
				return nil, err
			}
			if affected[key] {
				out = append(out, tr)
			}
		}
		return out, nil
	}
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	in0, err := restrict(q0)
	if err != nil {
		return nil, nil, 0, 0, nil, err
	}
	if old, err = exec.AggregateRows(a, in0, ctx); err != nil {
		return nil, nil, 0, 0, nil, err
	}
	if seed {
		cur, state, err = exec.AggregateRowsState(a, q1, affected, ctx)
		return old, cur, len(in0), 0, state, err
	}
	in1, err := restrict(q1)
	if err != nil {
		return nil, nil, 0, 0, nil, err
	}
	if cur, err = exec.AggregateRows(a, in1, ctx); err != nil {
		return nil, nil, 0, 0, nil, err
	}
	return old, cur, len(in0), len(in1), nil, nil
}

// deltaDistinct treats DISTINCT as grouping on every column.
func deltaDistinct(d *plan.Distinct, iv Interval, env *Env) ([]signedRow, error) {
	din, err := deltaRec(d.Input, iv, env)
	if err != nil {
		return nil, err
	}
	if len(din) == 0 {
		return nil, nil
	}
	rowKey := func(r types.Row) string {
		var buf []byte
		for _, v := range r {
			buf = exec.NormalizeKeyValue(v).EncodeKey(buf)
		}
		return string(buf)
	}
	affected := make(map[string]bool, len(din))
	for _, sr := range din {
		affected[rowKey(sr.Row)] = true
	}
	count := func(rows []exec.TRow) map[string]types.Row {
		m := make(map[string]types.Row)
		for _, tr := range rows {
			k := rowKey(tr.Row)
			if affected[k] {
				if _, ok := m[k]; !ok {
					m[k] = tr.Row
				}
			}
		}
		return m
	}
	q0, q1, err := snapshotBoundaries(d.Input, iv, env)
	if err != nil {
		return nil, err
	}
	before := count(q0)
	after := count(q1)
	var out []signedRow
	for k, row := range before {
		if _, still := after[k]; !still {
			out = append(out, signedRow{ID: exec.DistinctRowID(k), Row: row, Action: delta.Delete})
		}
	}
	for k, row := range after {
		if _, had := before[k]; !had {
			out = append(out, signedRow{ID: exec.DistinctRowID(k), Row: row, Action: delta.Insert})
		}
	}
	return out, nil
}

// deltaWindow recomputes affected partitions (§5.5.1):
// Δξ(Q) = π₋(ξ(Q₀ ⋉ₖ ΔQ)) + π₊(ξ(Q₁ ⋉ₖ ΔQ)).
func deltaWindow(w *plan.Window, iv Interval, env *Env) ([]signedRow, error) {
	din, err := deltaRec(w.Input, iv, env)
	if err != nil {
		return nil, err
	}
	if len(din) == 0 {
		return nil, nil
	}
	q0, q1, err := snapshotBoundaries(w.Input, iv, env)
	if err != nil {
		return nil, err
	}

	partKey := func(row types.Row) (string, error) {
		key, _, err := exec.EvalKey(w.PartitionBy, row, env.Now)
		return key, err
	}

	affected := make(map[string]bool)
	if env.FullWindowRecompute {
		for _, tr := range q0 {
			k, err := partKey(tr.Row)
			if err != nil {
				return nil, err
			}
			affected[k] = true
		}
		for _, tr := range q1 {
			k, err := partKey(tr.Row)
			if err != nil {
				return nil, err
			}
			affected[k] = true
		}
	} else {
		for _, sr := range din {
			k, err := partKey(sr.Row)
			if err != nil {
				return nil, err
			}
			affected[k] = true
		}
	}

	total := make(map[string]bool)
	restrict := func(rows []exec.TRow, countTotal bool) ([]exec.TRow, error) {
		var out []exec.TRow
		for _, tr := range rows {
			k, err := partKey(tr.Row)
			if err != nil {
				return nil, err
			}
			if countTotal {
				total[k] = true
			}
			if affected[k] {
				out = append(out, tr)
			}
		}
		return out, nil
	}
	in0, err := restrict(q0, false)
	if err != nil {
		return nil, err
	}
	in1, err := restrict(q1, true)
	if err != nil {
		return nil, err
	}
	env.stats(func(s *Stats) {
		s.PartitionsRecomputed += int64(len(affected))
		s.PartitionsTotal += int64(len(total))
	})

	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	old, err := exec.WindowRows(w, in0, ctx)
	if err != nil {
		return nil, err
	}
	cur, err := exec.WindowRows(w, in1, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]signedRow, 0, len(old)+len(cur))
	for _, tr := range old {
		out = append(out, signedRow{ID: tr.ID, Row: tr.Row, Action: delta.Delete})
	}
	for _, tr := range cur {
		out = append(out, signedRow{ID: tr.ID, Row: tr.Row, Action: delta.Insert})
	}
	// Rows whose window values did not change cancel in consolidation.
	return out, nil
}
