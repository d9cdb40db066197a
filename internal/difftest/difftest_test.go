package difftest

import (
	"fmt"
	"testing"
	"time"

	"dyntables"
)

// TestDifferentialSeeds replays a batch of seeded random workloads
// against the columnar and row-at-a-time engines and requires byte-equal
// results everywhere. Each seed covers random schemas, churn, joins,
// aggregates, ORDER BY, bind parameters and a refreshed DT DAG.
func TestDifferentialSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 11, 42, 1337, 20260807}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := RunSeed(seed, 40); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGenerateDeterministic pins the generator's determinism: the same
// seed must produce the identical script, or a failing seed would not be
// reproducible.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(99, 30)
	b := Generate(99, 30)
	if len(a.Steps) != len(b.Steps) || len(a.Setup) != len(b.Setup) {
		t.Fatalf("script shapes differ: %d/%d steps, %d/%d setup",
			len(a.Steps), len(b.Steps), len(a.Setup), len(b.Setup))
	}
	for i := range a.Steps {
		if a.Steps[i].SQL != b.Steps[i].SQL {
			t.Fatalf("step %d differs:\n%s\n%s", i, a.Steps[i].SQL, b.Steps[i].SQL)
		}
	}
}

// engineWithDT builds a tiny pipeline for the per-DT checks.
func engineWithDT(t *testing.T) *dyntables.Engine {
	t.Helper()
	e := dyntables.New()
	t.Cleanup(func() { e.Close() })
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE t (a INT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2)`)
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh
	            AS SELECT a, a * 2 b FROM t`)
	return e
}

func TestMonotoneHistory(t *testing.T) {
	e := engineWithDT(t)
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, 3+i))
		e.AdvanceTime(2 * time.Minute)
		if err := e.RunScheduler(); err != nil {
			t.Fatal(err)
		}
		// A same-timestamp re-refresh is an idempotent NO_DATA.
		if err := e.ManualRefresh("d"); err != nil {
			t.Fatal(err)
		}
	}
	if len(dt.History()) < 4 {
		t.Fatalf("expected a refresh history, got %d records", len(dt.History()))
	}
	if err := monotoneHistory(dt); err != nil {
		t.Errorf("monotone history: %v", err)
	}
	if err := checkDTs(e, []string{"d"}, time.Minute); err != nil {
		t.Errorf("per-tick checks: %v", err)
	}
}

func TestLagWithinTarget(t *testing.T) {
	e := engineWithDT(t)
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceTime(90 * time.Second)
	if err := e.RunScheduler(); err != nil {
		t.Fatal(err)
	}
	if err := lagWithinTarget(dt, e.Now(), time.Minute); err != nil {
		t.Errorf("lag within target: %v", err)
	}
	// Suspend and fall far behind: the check fires.
	e.MustExec(`ALTER DYNAMIC TABLE d SUSPEND`)
	e.AdvanceTime(time.Hour)
	if err := lagWithinTarget(dt, e.Now(), time.Minute); err == nil {
		t.Error("stale DT must violate the lag check")
	}
}
