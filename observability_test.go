package dyntables

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"

	"dyntables/internal/types"
)

// obsFixture builds an engine with a base table, two chained DTs and a
// few scheduler passes, so every observability surface has data.
func obsFixture(t *testing.T, opts ...Option) (*Engine, *Session) {
	t.Helper()
	eng := New(opts...)
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE events (id INT, v INT)`)
	sess.MustExec(`CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT id, count(*) c, sum(v) s FROM events GROUP BY id`)
	sess.MustExec(`CREATE DYNAMIC TABLE grand TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT count(*) n FROM totals`)
	for i := 0; i < 3; i++ {
		sess.MustExec(`INSERT INTO events VALUES (1, 10), (2, 20)`)
		eng.AdvanceTime(2 * time.Minute)
		if err := eng.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	return eng, sess
}

// TestRefreshHistoryStreamingQuery is the PR's acceptance query: refresh
// history filtered, ordered and streamed through a normal QueryContext
// cursor with a bind parameter.
func TestRefreshHistoryStreamingQuery(t *testing.T) {
	_, sess := obsFixture(t)
	rows, err := sess.QueryContext(context.Background(),
		`SELECT dt_name, action, inserted, deleted, duration
		 FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
		 WHERE dt_name = ? ORDER BY data_ts`, "totals")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	count := 0
	sawIncremental := false
	for rows.Next() {
		var name, action string
		var inserted, deleted int64
		var duration types.Value
		if err := rows.Scan(&name, &action, &inserted, &deleted, &duration); err != nil {
			t.Fatal(err)
		}
		if name != "totals" {
			t.Fatalf("WHERE not applied: got dt_name %q", name)
		}
		if action == "INCREMENTAL" {
			sawIncremental = true
			if duration.IsNull() || duration.Interval() <= 0 {
				t.Fatalf("incremental refresh has no duration: %v", duration)
			}
		}
		count++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if count < 3 {
		t.Fatalf("expected >= 3 history rows for totals, got %d", count)
	}
	if !sawIncremental {
		t.Fatal("expected at least one INCREMENTAL refresh in history")
	}
}

func TestInfoSchemaDynamicTablesSLO(t *testing.T) {
	eng, sess := obsFixture(t)
	res, err := sess.Query(`SELECT name, state, refresh_mode, slo_attainment, lag_p95
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLES ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 DTs, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "grand" || res.Rows[1][0].Str() != "totals" {
		t.Fatalf("unexpected DT names: %v, %v", res.Rows[0][0], res.Rows[1][0])
	}
	for _, row := range res.Rows {
		if row[1].Str() != "ACTIVE" {
			t.Fatalf("%s state = %s", row[0], row[1])
		}
		att := row[3]
		if att.IsNull() {
			t.Fatalf("%s has NULL slo_attainment after scheduled refreshes", row[0])
		}
		if f := att.Float(); f < 0 || f > 1 {
			t.Fatalf("%s attainment %v outside [0,1]", row[0], f)
		}
		if row[4].IsNull() || row[4].Interval() <= 0 {
			t.Fatalf("%s lag_p95 = %v", row[0], row[4])
		}
	}

	// The Go-side accessor agrees.
	stats, ok := eng.LagSLO("totals")
	if !ok || stats.Samples == 0 {
		t.Fatalf("LagSLO(totals) = %+v, %v", stats, ok)
	}
}

// TestInfoSchemaJoin exercises the virtual tables through the planner's
// join path: graph history joined against the DT listing.
func TestInfoSchemaJoin(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Query(`
		SELECT g.dt_name, g.upstream, d.refresh_mode
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_GRAPH_HISTORY g
		JOIN INFORMATION_SCHEMA.DYNAMIC_TABLES d ON g.dt_name = d.name
		ORDER BY g.dt_name, g.upstream`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 graph edges, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "grand" || res.Rows[0][1].Str() != "totals" {
		t.Fatalf("edge 0 = %v -> %v", res.Rows[0][0], res.Rows[0][1])
	}
	if res.Rows[1][0].Str() != "totals" || res.Rows[1][1].Str() != "events" {
		t.Fatalf("edge 1 = %v -> %v", res.Rows[1][0], res.Rows[1][1])
	}
}

func TestWarehouseMeteringHistory(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Query(`SELECT warehouse, label, credits
		FROM INFORMATION_SCHEMA.WAREHOUSE_METERING_HISTORY WHERE credits > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected billed jobs in metering history")
	}
	for _, row := range res.Rows {
		if row[0].Str() != "wh" {
			t.Fatalf("unexpected warehouse %v", row[0])
		}
	}
}

func TestHistoryRingsBounded(t *testing.T) {
	eng, sess := obsFixture(t, WithConfig(Config{HistoryCapacity: 4}))
	// Many more refreshes than the ring capacity.
	for i := 0; i < 10; i++ {
		sess.MustExec(`INSERT INTO events VALUES (3, 1)`)
		eng.AdvanceTime(2 * time.Minute)
		if err := eng.RunScheduler(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
		WHERE dt_name = 'totals'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 4 {
		t.Fatalf("refresh-history ring kept %d events, want 4", n)
	}
	// The in-engine Describe history honors the same bound, keeping the
	// newest records.
	st, err := sess.Describe("totals")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.History) != 4 {
		t.Fatalf("DT history ring kept %d records, want 4", len(st.History))
	}
	for i := 1; i < len(st.History); i++ {
		if st.History[i].DataTS.Before(st.History[i-1].DataTS) {
			t.Fatal("DT history ring out of order after wrap")
		}
	}

	// ALTER SYSTEM rebinds the capacity at runtime.
	if _, err := sess.Exec(`ALTER SYSTEM SET HISTORY_CAPACITY = 2`); err != nil {
		t.Fatal(err)
	}
	eng.AdvanceTime(2 * time.Minute)
	if err := eng.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
		WHERE dt_name = 'totals'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 2 {
		t.Fatalf("after ALTER SYSTEM, ring kept %d events, want 2", n)
	}
	if st, err = sess.Describe("totals"); err != nil || len(st.History) != 2 {
		t.Fatalf("after ALTER SYSTEM, DT history kept %d records (err %v), want 2", len(st.History), err)
	}
}

func TestShowStatements(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Exec(`SHOW DYNAMIC TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "SHOW DYNAMIC TABLES" || len(res.Rows) != 2 {
		t.Fatalf("SHOW DYNAMIC TABLES: kind=%s rows=%d", res.Kind, len(res.Rows))
	}
	if res.Columns[0] != "name" {
		t.Fatalf("unexpected SHOW columns: %v", res.Columns)
	}
	res, err = sess.Exec(`SHOW WAREHOUSES`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "wh" {
		t.Fatalf("SHOW WAREHOUSES rows: %v", res.Rows)
	}
}

func TestExplainSelect(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Exec(`EXPLAIN SELECT id, count(*) FROM events WHERE id > 1 GROUP BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "EXPLAIN" {
		t.Fatalf("kind = %s", res.Kind)
	}
	text := explainText(res)
	for _, want := range []string{"Aggregate", "Scan(events)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
}

// TestExplainAnalyzeSameOnBothEngines checks that EXPLAIN ANALYZE on the
// default (columnar) engine reports the same per-node rows and loops as
// on a DisableColumnar engine, for a Scan→Filter→Project→Limit chain and
// a GROUP BY above one.
func TestExplainAnalyzeSameOnBothEngines(t *testing.T) {
	timing := regexp.MustCompile(` time=[^)]*\)`)
	for _, q := range []string{
		`SELECT id, v + 1 FROM events WHERE v > 10 LIMIT 100`,
		`SELECT id, count(*) FROM (SELECT id, v + 1 AS w FROM events WHERE v > 10 LIMIT 100) s GROUP BY id`,
	} {
		var plans []string
		for _, disable := range []bool{false, true} {
			_, sess := obsFixture(t, WithConfig(Config{DisableColumnar: disable}))
			res, err := sess.Exec(`EXPLAIN ANALYZE ` + q)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(explainText(res)), "\n")
			tree := strings.Join(lines[:len(lines)-1], "\n") // drop the footer
			if strings.Contains(tree, "never executed") || !strings.Contains(tree, "loops=1") {
				t.Fatalf("%s (DisableColumnar=%v): unannotated plan:\n%s", q, disable, tree)
			}
			plans = append(plans, timing.ReplaceAllString(tree, ")"))
		}
		if plans[0] != plans[1] {
			t.Errorf("%s: columnar engine\n%s\nrow engine\n%s", q, plans[0], plans[1])
		}
	}
}

func TestExplainCreateDynamicTable(t *testing.T) {
	_, sess := obsFixture(t)
	res, err := sess.Exec(`EXPLAIN CREATE DYNAMIC TABLE agg TARGET_LAG = '2 minutes' WAREHOUSE = wh
		AS SELECT id, sum(v) s FROM events GROUP BY id`)
	if err != nil {
		t.Fatal(err)
	}
	text := explainText(res)
	for _, want := range []string{
		"refresh_mode: INCREMENTAL",
		"target_lag: 2m0s",
		"upstream frontier:",
		"events TABLE version=",
		"Scan(events)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	// EXPLAIN creates nothing.
	if _, err := sess.Query(`SELECT * FROM agg`); err == nil {
		t.Fatal("EXPLAIN CREATE DYNAMIC TABLE actually created the DT")
	}

	// A non-incrementalizable query reports the FULL decision and why;
	// reading an upstream DT surfaces its frontier.
	res, err = sess.Exec(`EXPLAIN CREATE DYNAMIC TABLE top TARGET_LAG = '2 minutes' WAREHOUSE = wh
		AS SELECT id FROM totals ORDER BY id LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	text = explainText(res)
	if !strings.Contains(text, "refresh_mode: FULL (AUTO:") {
		t.Fatalf("expected FULL decision with reason:\n%s", text)
	}
	if !strings.Contains(text, "totals DYNAMIC TABLE") || !strings.Contains(text, "data_ts=") {
		t.Fatalf("expected upstream DT frontier:\n%s", text)
	}

	// EXPLAIN binds like the real CREATE: a defining query over
	// INFORMATION_SCHEMA is rejected, not explained as viable.
	_, err = sess.Exec(`EXPLAIN CREATE DYNAMIC TABLE meta TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT name FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)
	if err == nil || !strings.Contains(err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("EXPLAIN over a virtual defining query: err = %v", err)
	}
}

func explainText(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].Str())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestVirtualTablesRejectedInDefiningQueries(t *testing.T) {
	_, sess := obsFixture(t)
	_, err := sess.Exec(`CREATE DYNAMIC TABLE meta TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT name FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)
	if err == nil || !strings.Contains(err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("DT over a virtual table: err = %v", err)
	}
	// Views over INFORMATION_SCHEMA are allowed (they re-expand at query
	// time)...
	if _, err := sess.Exec(`CREATE VIEW dt_modes AS
		SELECT name, refresh_mode FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(`SELECT count(*) FROM dt_modes`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("view over info schema returned %v rows", res.Rows[0][0])
	}
	// ...but a DT over such a view is still rejected.
	_, err = sess.Exec(`CREATE DYNAMIC TABLE meta2 TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT name FROM dt_modes`)
	if err == nil || !strings.Contains(err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("DT over an info-schema view: err = %v", err)
	}
}

// TestViewEvolvedToVirtualDoesNotDeadlock replaces a DT's upstream view
// with one reading INFORMATION_SCHEMA after the DT exists. The refresh
// re-bind must fail cleanly (the controller binds against the
// catalog-only resolver) — materializing a virtual table from inside a
// scheduler tick would call back into the scheduler under its own lock.
func TestViewEvolvedToVirtualDoesNotDeadlock(t *testing.T) {
	eng := New()
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession()
	sess.MustExec(`CREATE WAREHOUSE wh`)
	sess.MustExec(`CREATE TABLE src (a INT)`)
	sess.MustExec(`INSERT INTO src VALUES (1)`)
	sess.MustExec(`CREATE VIEW v AS SELECT a FROM src`)
	sess.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
		AS SELECT a FROM v`)
	sess.MustExec(`CREATE OR REPLACE VIEW v AS
		SELECT rows AS a FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`)

	eng.AdvanceTime(2 * time.Minute)
	done := make(chan error, 1)
	go func() { done <- eng.RunScheduler() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("scheduler pass returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler pass deadlocked on a virtual-table bind")
	}
	// The refresh itself failed and is visible in the history.
	st, err := sess.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	last := st.History[len(st.History)-1]
	if last.Action.String() != "ERROR" || last.Err == nil ||
		!strings.Contains(last.Err.Error(), "INFORMATION_SCHEMA") {
		t.Fatalf("expected an INFORMATION_SCHEMA bind error in history, got %+v", last)
	}
}

func TestObservabilityDisabled(t *testing.T) {
	eng, sess := obsFixture(t, WithConfig(Config{HistoryCapacity: -1}))
	res, err := sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("disabled recorder retained %d events", n)
	}
	// The engine itself still works and the DT history ring (bounded at
	// the default) still serves Describe.
	if err := eng.CheckDVS("totals"); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Describe("totals")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.History) == 0 {
		t.Fatal("Describe history should be independent of the obs recorder")
	}

	// ALTER SYSTEM SET HISTORY_CAPACITY re-enables recording at runtime.
	sess.MustExec(`ALTER SYSTEM SET HISTORY_CAPACITY = 16`)
	sess.MustExec(`INSERT INTO events VALUES (9, 9)`)
	eng.AdvanceTime(2 * time.Minute)
	if err := eng.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Query(`SELECT count(*) FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n == 0 {
		t.Fatal("ALTER SYSTEM SET HISTORY_CAPACITY should re-enable recording")
	}
}
