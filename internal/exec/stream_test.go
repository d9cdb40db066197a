package exec_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// stream plans a SELECT and returns a row-path cursor.
func (h *harness) stream(query string, ctx context.Context) (exec.RowIter, error) {
	p, err := h.plan(query)
	if err != nil {
		return nil, err
	}
	ec := h.context(false)
	ec.Ctx = ctx
	return exec.Stream(p, ec), nil
}

// drain pulls a cursor row by row, bypassing Collect's shortcut for
// already-materialized operators.
func drain(t *testing.T, it exec.RowIter) []exec.TRow {
	t.Helper()
	defer it.Close()
	var out []exec.TRow
	for {
		tr, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, tr)
	}
}

// TestStreamRowMatchesColumnar checks that the row and columnar paths
// produce the same rows and row IDs across pipelined and blocking
// operators, whether the cursor is drained row by row or collected.
func TestStreamRowMatchesColumnar(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int, b int",
		ints(1, 10), ints(2, 20), ints(3, 30), ints(4, 40))
	h.table("u", "a int, c int", ints(1, 100), ints(3, 300))
	items := func(doc string) types.Value {
		v, err := types.ParseVariant(doc)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	h.table("ev", "id int, payload variant",
		types.Row{types.NewInt(1), items(`{"items": [10, 20]}`)},
		types.Row{types.NewInt(2), items(`{"items": [30]}`)})

	queries := []string{
		`SELECT a, b FROM t WHERE a > 1`,
		`SELECT a + 1 FROM t WHERE b >= 20 LIMIT 5`,
		`SELECT a, b FROM t ORDER BY a DESC LIMIT 2`,
		`SELECT t.a, b, c FROM t JOIN u ON t.a = u.a`,
		`SELECT a FROM t UNION ALL SELECT a FROM u`,
		`SELECT count(*), sum(b) FROM t`,
		`SELECT a % 2, count(*) FROM t WHERE a > 1 GROUP BY a % 2`,
		`SELECT DISTINCT a / a FROM t`,
		`SELECT 1 + 2, 'x'`, // VALUES
		`SELECT 7 UNION ALL SELECT a FROM t WHERE a < 3`,
		`SELECT e.id, f.value::int FROM ev e, LATERAL FLATTEN(input => e.payload:items) f`,
	}
	for _, q := range queries {
		p, err := h.plan(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := renderWithIDs(drain(t, exec.Stream(p, h.context(false))))
		for _, columnar := range []bool{false, true} {
			collected, err := exec.Collect(exec.Stream(p, h.context(columnar)))
			if err != nil {
				t.Fatalf("%s (columnar=%v): %v", q, columnar, err)
			}
			for name, rows := range map[string][]exec.TRow{
				"collected": collected,
				"drained":   drain(t, exec.Stream(p, h.context(columnar))),
			} {
				if got := renderWithIDs(rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s (columnar=%v, %s): got %v, want %v", q, columnar, name, got, want)
				}
			}
		}
	}
}

// TestExplainAnalyzeStatsMatchAcrossPaths checks that per-node stats
// attach on the columnar path (which really runs with Stats set) and
// agree with the row path's rows and loops, and that the top of a
// columnar chain is not counted twice.
func TestExplainAnalyzeStatsMatchAcrossPaths(t *testing.T) {
	h := newHarness(t)
	var rows []types.Row
	for i := int64(0); i < 50; i++ {
		rows = append(rows, ints(i, i%7))
	}
	h.table("t", "a int, b int", rows...)

	for _, q := range []string{
		// Scan→Filter→Project→Limit; the LIMIT does not truncate, so
		// the row path drains its input like the columnar path does.
		`SELECT a + 1, b FROM t WHERE b > 2 LIMIT 100`,
		`SELECT b, count(*) FROM (SELECT a + 1 AS x, b FROM t WHERE b > 2 LIMIT 100) s GROUP BY b`,
	} {
		p, err := h.plan(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		run := func(columnar bool) (*exec.NodeStats, int, int) {
			ec := h.context(columnar)
			batches := 0
			if columnar {
				batchOf := ec.BatchOf
				ec.BatchOf = func(s *plan.Scan) (*types.Batch, error) {
					batches++
					return batchOf(s)
				}
			}
			ec.Stats = exec.NewNodeStats()
			out, err := exec.Collect(exec.Stream(p, ec))
			if err != nil {
				t.Fatalf("%s (columnar=%v): %v", q, columnar, err)
			}
			return ec.Stats, len(out), batches
		}
		rowStats, n, _ := run(false)
		colStats, _, batches := run(true)
		if batches == 0 {
			t.Errorf("%s: stats collection kept the columnar path from running", q)
		}
		top, _ := colStats.Lookup(p)
		if top.Rows != int64(n) || top.Loops != 1 {
			t.Errorf("%s: top node rows=%d loops=%d, want rows=%d loops=1", q, top.Rows, top.Loops, n)
		}
		plan.Walk(p, func(node plan.Node) {
			rs, rok := rowStats.Lookup(node)
			cs, cok := colStats.Lookup(node)
			if !rok || !cok {
				t.Errorf("%s: %s never executed (row=%v columnar=%v)", q, node.Describe(), rok, cok)
				return
			}
			if rs.Rows != cs.Rows || rs.Loops != cs.Loops {
				t.Errorf("%s: %s row path rows=%d loops=%d, columnar rows=%d loops=%d",
					q, node.Describe(), rs.Rows, rs.Loops, cs.Rows, cs.Loops)
			}
		})
	}
}

// TestCursorHonoursClose checks that no cursor yields rows after Close,
// on either path.
func TestCursorHonoursClose(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1), ints(2), ints(3))
	p, err := h.plan(`SELECT a FROM t WHERE a > 0`)
	if err != nil {
		t.Fatal(err)
	}
	for _, columnar := range []bool{false, true} {
		it := exec.Stream(p, h.context(columnar))
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("columnar=%v: first row ok=%v err=%v", columnar, ok, err)
		}
		it.Close()
		if tr, ok, err := it.Next(); ok || err != nil {
			t.Errorf("columnar=%v: Next after Close = %v, %v, %v", columnar, tr, ok, err)
		}
	}
}

// TestStreamCancellation checks that a canceled context stops the cursor
// with the context's error.
func TestStreamCancellation(t *testing.T) {
	h := newHarness(t)
	var rows []types.Row
	for i := int64(0); i < 200; i++ {
		rows = append(rows, ints(i, i*2))
	}
	h.table("big", "a int, b int", rows...)

	ctx, cancel := context.WithCancel(context.Background())
	it, err := h.stream(`SELECT a FROM big WHERE b >= 0`, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; i < 5; i++ {
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	_, ok, err := it.Next()
	if ok {
		t.Fatal("Next produced a row after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The iterator stays closed afterwards.
	if _, ok, _ := it.Next(); ok {
		t.Fatal("iterator produced rows after Close")
	}
}

// TestStreamLimitShortCircuits checks that Limit stops pulling from its
// input once satisfied (pipelined, not materialized) and yields exactly
// N rows on both paths.
func TestStreamLimitShortCircuits(t *testing.T) {
	h := newHarness(t)
	var rows []types.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, ints(i))
	}
	h.table("t", "a int", rows...)

	p, err := h.plan(`SELECT a FROM t WHERE a % 2 = 0 LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	for _, columnar := range []bool{false, true} {
		ec := h.context(columnar)
		ec.Stats = exec.NewNodeStats()
		out, err := exec.Collect(exec.Stream(p, ec))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 3 {
			t.Fatalf("columnar=%v: want 3 rows, got %d", columnar, len(out))
		}
		if columnar {
			continue
		}
		filter := p.Children()[0]
		if st, _ := ec.Stats.Lookup(filter); st.Rows != 3 {
			t.Errorf("row path: filter under LIMIT 3 produced %d rows, want 3", st.Rows)
		}
	}
}

// TestStreamParams checks bind-parameter evaluation through the cursor.
func TestStreamParams(t *testing.T) {
	h := newHarness(t)
	h.table("t", "a int", ints(1), ints(2), ints(3))

	stmt, err := sql.Parse(`SELECT a FROM t WHERE a >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := plan.NewBinder(h).BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	ec := &exec.Context{
		RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
			return s.Table.Rows(int64(s.Table.VersionCount()))
		},
		Now:    time.Now(),
		Params: &plan.Params{Positional: []types.Value{types.NewInt(2)}},
	}
	out, err := exec.Collect(exec.Stream(plan.Optimize(bound.Plan), ec))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("want 2 rows, got %d", len(out))
	}

	// Unbound parameters surface as evaluation errors, not wrong results.
	ec.Params = nil
	if _, err := exec.Collect(exec.Stream(plan.Optimize(bound.Plan), ec)); err == nil {
		t.Fatal("want unbound-parameter error")
	}
}
