package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"dyntables"
	"dyntables/internal/core"
)

// foldFixture drives a foldable aggregate DT through refresh-mode
// transitions, checking after every refresh that the stored contents
// equal the defining query byte for byte (value kinds included).
type foldFixture struct {
	t    *testing.T
	e    *dyntables.Engine
	dt   *core.DynamicTable
	next int   // next v value to insert
	live []int // inserted v values not yet deleted
}

const foldQuery = `SELECT g, count(*) c, count(v) n, sum(v) s, avg(v) a, count_if(v % 2 = 0) ev FROM src GROUP BY g`

func (f *foldFixture) seed(rows int) {
	var vals []string
	for i := 0; i < rows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", f.next%5, f.next))
		f.live = append(f.live, f.next)
		f.next++
	}
	f.e.MustExec(`INSERT INTO src VALUES ` + strings.Join(vals, ", "))
}

// churn changes four source rows: three inserts (one with a NULL v) and
// one delete.
func (f *foldFixture) churn() {
	f.e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d), (%d, %d), (%d, NULL)`,
		f.next%5, f.next, (f.next+1)%5, f.next+1, (f.next+2)%5))
	f.live = append(f.live, f.next, f.next+1)
	f.next += 3
	f.e.MustExec(fmt.Sprintf(`DELETE FROM src WHERE v = %d`, f.live[0]))
	f.live = f.live[1:]
}

func (f *foldFixture) handle() {
	dt, err := f.e.DynamicTableHandle("d")
	if err != nil {
		f.t.Fatal(err)
	}
	f.dt = dt
}

// refresh runs a manual refresh and checks its action and whether it
// folded: a folded refresh reads exactly the 4 changed rows, a recompute
// both boundary snapshots of the whole source.
func (f *foldFixture) refresh(want core.RefreshAction, folded bool) {
	f.t.Helper()
	f.e.AdvanceTime(time.Minute)
	if err := f.e.ManualRefresh("d"); err != nil {
		f.t.Fatal(err)
	}
	rec, _ := f.dt.LastRecord()
	if rec.Action != want {
		f.t.Fatalf("action %v, want %v", rec.Action, want)
	}
	if want == core.ActionIncremental {
		if got := rec.SourceRowsScanned == 4; got != folded {
			f.t.Fatalf("folded = %v (read %d source rows), want %v", got, rec.SourceRowsScanned, folded)
		}
	}
	if err := f.e.CheckDVS("d"); err != nil {
		f.t.Fatal(err)
	}
	if got, want := f.dump(`SELECT * FROM d`), f.dump(foldQuery); got != want {
		f.t.Fatalf("stored contents differ from the query:\n%s\nwant:\n%s", got, want)
	}
}

func (f *foldFixture) dump(query string) string {
	f.t.Helper()
	res, err := f.e.Query(query)
	if err != nil {
		f.t.Fatal(err)
	}
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Kind().String() + ":" + v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestFoldAcrossRefreshModeTransitions: folding starts after the first
// incremental refresh, survives NO_DATA, and restarts from a recompute
// after every full recompute — a FULL refresh, a REINITIALIZE after the
// upstream is replaced — and after recovery, since the state is held in
// memory only.
func TestFoldAcrossRefreshModeTransitions(t *testing.T) {
	dir := t.TempDir()
	e, err := dyntables.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := &foldFixture{t: t, e: e}
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (g INT, v INT)`)
	f.seed(60)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh REFRESH_MODE = INCREMENTAL AS ` + foldQuery)
	f.handle()

	f.churn()
	f.refresh(core.ActionIncremental, false) // seeds the state
	f.churn()
	f.refresh(core.ActionIncremental, true)

	// NO_DATA: a data-equivalent rewrite moves the source version but
	// changes nothing; the state stays valid for the next interval.
	e.MustExec(`UPDATE src SET v = v WHERE g = 1`)
	f.refresh(core.ActionNoData, false)
	f.churn()
	f.refresh(core.ActionIncremental, true)

	// FULL and back to INCREMENTAL.
	e.MustExec(`ALTER DYNAMIC TABLE d SET REFRESH_MODE = FULL`)
	f.churn()
	f.refresh(core.ActionFull, false)
	e.MustExec(`ALTER DYNAMIC TABLE d SET REFRESH_MODE = INCREMENTAL`)
	f.churn()
	f.refresh(core.ActionIncremental, false)
	f.churn()
	f.refresh(core.ActionIncremental, true)

	// Replacing the upstream reinitializes the DT.
	e.MustExec(`CREATE OR REPLACE TABLE src (g INT, v INT)`)
	f.live = nil
	f.seed(60)
	f.refresh(core.ActionReinitialize, false)
	f.churn()
	f.refresh(core.ActionIncremental, false)
	f.churn()
	f.refresh(core.ActionIncremental, true)

	// Recovery starts without state.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if f.e, err = dyntables.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer f.e.Close()
	f.handle()
	f.churn()
	f.refresh(core.ActionIncremental, false)
	f.churn()
	f.refresh(core.ActionIncremental, true)
}
