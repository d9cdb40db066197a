package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"dyntables"
	"dyntables/internal/core"
	"dyntables/internal/sched"
	"dyntables/internal/storage"
	"dyntables/internal/warehouse"
)

// engineConfig is shared by every workload: one refresh worker and one
// delta branch per usable CPU, and a compaction horizon, so version
// chains stay short. Everything else, the observability history rings
// included, keeps its default. The virtual cost model is small enough
// that no refresh outlasts a refresh period, so the scheduler never
// skips one.
func engineConfig() []dyntables.Option {
	n := runtime.GOMAXPROCS(0)
	return []dyntables.Option{
		dyntables.WithConfig(dyntables.Config{RefreshWorkers: n, DeltaParallelism: n, CompactionHorizon: compactionHorizon}),
		dyntables.WithCostModel(warehouse.CostModel{Fixed: 100 * time.Millisecond, PerRow: time.Microsecond}),
	}
}

// compactionHorizon is the number of versions each table keeps below
// its oldest reader. It is small, so that a DT, which gains one version
// per refresh, reaches its steady chain length within the warm-up; the
// traced run's probes pin the versions they replay.
const compactionHorizon = 8

// fillRings runs empty scheduler passes, each followed by the read-only
// statement stmt, until every per-DT and per-statement observability
// history ring holds its full capacity. Until then each step adds
// retained history, so the live heap, and the collector's work behind
// every latency, would grow with the number of steps a run manages;
// once the rings are full, each new entry evicts the oldest. The
// warehouse metering ring is left out: only refreshes that read changes
// write it, one small entry each.
func fillRings(eng *dyntables.Engine, sess *dyntables.Session, names []string, stmt string) error {
	rec := eng.Observability()
	c := rec.Capacity()
	full := func() bool {
		if len(rec.Statements()) < c || len(rec.Resources()) < c {
			return false
		}
		for _, n := range names {
			dt, err := eng.DynamicTableHandle(n)
			if err != nil || len(dt.History()) < dt.HistoryCapacity() || rec.HistoryLen(n) < c || len(rec.LagSeries(n)) < c {
				return false
			}
		}
		return true
	}
	for i := 0; i%32 != 0 || !full(); i++ {
		if i > 2*c {
			return fmt.Errorf("history rings not full after %d passes", i)
		}
		eng.AdvanceTime(period)
		if err := eng.RunScheduler(); err != nil {
			return err
		}
		if _, err := sess.Exec(stmt); err != nil {
			return err
		}
	}
	return nil
}

// dtOptions are the clauses of every workload DT: the workloads measure
// incremental maintenance, so the refresh mode is pinned.
var dtOptions = fmt.Sprintf("TARGET_LAG = '%d seconds' WAREHOUSE = wh REFRESH_MODE = INCREMENTAL", int(targetLag.Seconds()))

// targetLag is every workload DT's TARGET_LAG; each workload step
// advances the virtual clock by one canonical period, so each step's
// scheduler pass refreshes every DT exactly once.
const targetLag = time.Minute

var period = sched.CanonicalPeriod(targetLag)

// valuesText renders INSERT ... VALUES for rows of int columns.
func valuesText(table string, rows [][]int64) string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + table + " VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// churn is one statement of a churn batch and the rows it must affect.
type churn struct {
	text string
	rows int
}

// churnBatch renders n statements that together insert rows new rows at
// the top of the id window [lo, hi) and delete the rows oldest rows, so
// the table's size stays the same. Every (n/deletes)-th statement is a
// DELETE; the others are INSERTs. Rows are spread over each kind as
// evenly as they divide. A DELETE scans the whole table and an INSERT
// does not, so the two kinds take different times. With one DELETE in
// ten statements, the latency median falls inside the INSERT
// population and the p95 inside the DELETE population, each away from
// the boundary between the two.
func churnBatch(table string, n, deletes, rows int, lo, hi *int64, row func(id int64) []int64) []churn {
	share := func(k, i int) int { return rows/k + btoi(i < rows%k) }
	out := make([]churn, 0, n)
	ins, del := 0, 0
	for i := 0; i < n; i++ {
		if (i+1)%(n/deletes) == 0 && del < deletes {
			m := share(deletes, del)
			out = append(out, churn{fmt.Sprintf("DELETE FROM %s WHERE id >= %d AND id < %d", table, *lo, *lo+int64(m)), m})
			*lo += int64(m)
			del++
			continue
		}
		vals := make([][]int64, share(n-deletes, ins))
		for j := range vals {
			vals[j] = row(*hi)
			*hi++
		}
		out = append(out, churn{valuesText(table, vals), len(vals)})
		ins++
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rowSet renders a result's rows as a sorted multiset for comparison.
func rowSet(res *dyntables.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// checkQueries runs each pair of SELECTs and checks that they return the
// same rows; corrupt drops one row from the first expected result, so a
// correct engine fails the check.
func checkQueries(r *result, sess *dyntables.Session, pairs [][2]string, corrupt bool) {
	for i, p := range pairs {
		got, err := sess.Query(p[0])
		if err != nil {
			r.op(fmt.Errorf("check %q: %w", p[0], err))
			continue
		}
		want, err := sess.Query(p[1])
		if err != nil {
			r.op(fmt.Errorf("check %q: %w", p[1], err))
			continue
		}
		w := rowSet(want)
		if corrupt && i == 0 && len(w) > 0 {
			w = w[1:]
		}
		g := rowSet(got)
		r.check(len(g) > 0 && slices.Equal(g, w), "%q returned %d rows, %q %d rows, or they differ", p[0], len(g), p[1], len(w))
	}
}

// checkDVS runs the delayed-view-semantics check on every named DT.
func checkDVS(r *result, eng *dyntables.Engine, names []string) {
	for _, n := range names {
		dt, err := eng.DynamicTableHandle(n)
		if err != nil {
			r.op(err)
			continue
		}
		r.op(eng.Controller().CheckDVS(dt))
	}
}

// dtHandles resolves DT names to their engine-side state.
func dtHandles(eng *dyntables.Engine, names []string) ([]*core.DynamicTable, error) {
	out := make([]*core.DynamicTable, len(names))
	for i, n := range names {
		dt, err := eng.DynamicTableHandle(n)
		if err != nil {
			return nil, err
		}
		out[i] = dt
	}
	return out, nil
}

// frontiers captures the current frontier of each DT.
func frontiers(dts []*core.DynamicTable) []core.Frontier {
	out := make([]core.Frontier, len(dts))
	for i, dt := range dts {
		out[i] = dt.Frontier().Clone()
	}
	return out
}

// baseTable resolves a base table's storage.
func baseTable(eng *dyntables.Engine, name string) (*storage.Table, error) {
	src, err := eng.ResolveTable(name)
	if err != nil {
		return nil, err
	}
	return src.Table, nil
}

// refreshWork sums the time the engine's own trace attributes to delta
// computation and merge in the given refreshes.
func refreshWork(eng *dyntables.Engine, dts []*core.DynamicTable) time.Duration {
	roots := map[int64]bool{}
	for _, dt := range dts {
		if rec, ok := dt.LastRecord(); ok && rec.TraceRoot != 0 {
			roots[rec.TraceRoot] = true
		}
	}
	var d time.Duration
	for _, rec := range eng.Tracer().Snapshot() {
		if roots[rec.Root] && (rec.Name == "ivm.delta" || rec.Name == "merge") {
			d += rec.Duration
		}
	}
	return d
}

// traceCompare reports how much slower the traced half of a run's
// primary latency is than the untraced half, in percent.
func traceCompare(r *result, untraced, traced series) {
	u, t := untraced.median(), traced.median()
	r.set("bench.trace_overhead_pct", 100*(t-u)/u, "%", len(traced))
}

// loop calls step until d has passed and enough() holds, or until three
// times d has passed.
func loop(d time.Duration, enough func() bool, step func() error) error {
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= 3*d || (el >= d && enough()) {
			return nil
		}
		if err := step(); err != nil {
			return err
		}
	}
}

// footprint sums the live versions and retained bytes of tables.
func footprint(tables []*storage.Table) (versions, bytes int64) {
	for _, t := range tables {
		fp := t.FootprintStats()
		versions += int64(fp.Versions)
		bytes += fp.Bytes
	}
	return versions, bytes
}
