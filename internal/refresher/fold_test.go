package refresher

import (
	"errors"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/hlc"
	"dyntables/internal/txn"
	"dyntables/internal/types"
)

// TestFoldStateSurvivesFailedMerge runs a DT whose plan holds two
// foldable aggregates under one UNION ALL, differentiated with parallel
// branches, through merges that fail with a genuine first-committer-wins
// conflict. A failed merge must leave the aggregate state at its previous
// tag: the retry, and the refresh after a failure that outlives the
// retry, still fold from it (reading only the changed rows) and pass the
// delayed-view-semantics check.
func TestFoldStateSurvivesFailedMerge(t *testing.T) {
	h := newHarness(t)
	h.ctrl.DeltaParallelism = 4
	src := h.baseTable("src", "g", "v")
	var seed []types.Row
	for i := int64(0); i < 60; i++ {
		seed = append(seed, ints(i%5, i))
	}
	h.insert(src, t0.Add(time.Second), seed...)
	dt := h.dt("d", `SELECT g, count(*) c, sum(v) s FROM src GROUP BY g
		UNION ALL SELECT v % 3, count(*), sum(g) FROM src GROUP BY v % 3`)
	r := New(h.ctrl, h.pool, h.model, 2)

	tick := 0
	refresh := func() Result {
		t.Helper()
		tick++
		results, err := r.ExecuteTick(requests(t0.Add(time.Duration(tick)*time.Minute), dt))
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	churn := func() {
		var rows []types.Row
		for g := int64(0); g < 5; g++ {
			rows = append(rows, ints(g, 100+int64(tick)))
		}
		h.insert(src, t0.Add(time.Duration(tick)*time.Minute+time.Second), rows...)
	}
	checkFolded := func(res Result) {
		t.Helper()
		if res.Err != nil {
			t.Fatalf("refresh failed: %v", res.Err)
		}
		if res.Rec.Action != core.ActionIncremental {
			t.Fatalf("action %v, want INCREMENTAL", res.Rec.Action)
		}
		// Each branch folds the 5 changed rows; a recompute would read
		// both boundary snapshots of both branches (>= 240 rows).
		if res.Rec.SourceRowsScanned != 10 {
			t.Fatalf("refresh read %d source rows, want the 10 folded changes", res.Rec.SourceRowsScanned)
		}
		if err := h.ctrl.CheckDVS(dt); err != nil {
			t.Fatal(err)
		}
	}
	// conflict commits a rewrite of the first branch's group rows at a
	// time after any snapshot the next merge takes, so that merge
	// conflicts. The rewrite changes the rows' contents (an identical
	// rewrite is data-equivalent and invisible to conflict checks); the
	// next successful refresh touches every one of these groups and
	// rewrites them again.
	conflict := func() hlc.Timestamp {
		t.Helper()
		rows, err := dt.Storage.Rows(int64(dt.Storage.VersionCount()))
		if err != nil {
			t.Fatal(err)
		}
		var cs delta.ChangeSet
		for g := int64(0); g < 5; g++ {
			id := exec.UnionBranchID(0, exec.GroupRowID(string(types.NewInt(g).EncodeKey(nil))))
			row, ok := rows[id]
			if !ok {
				t.Fatalf("no DT row for group %d", g)
			}
			cs.AddDelete(id, row)
			cs.AddInsert(id, ints(g, -1, -1))
		}
		at := hlc.Timestamp{WallMicros: t0.Add(time.Duration(tick) * 24 * time.Hour).UnixMicro()}
		if _, err := dt.Storage.Apply(cs, at); err != nil {
			t.Fatal(err)
		}
		return at
	}

	refresh() // INITIALIZE
	churn()
	if res := refresh(); res.Err != nil || res.Rec.SourceRowsScanned < 240 {
		t.Fatalf("first incremental refresh must recompute and seed: %+v", res)
	}
	churn()
	checkFolded(refresh())

	// The first merge conflicts; the retry-once succeeds.
	churn()
	at := conflict()
	var calls int
	r.refreshFn = func(d *core.DynamicTable, ts time.Time) (core.RefreshRecord, error) {
		calls++
		rec, err := h.ctrl.Refresh(d, ts)
		if calls == 1 {
			if !errors.Is(err, txn.ErrConflict) {
				t.Errorf("first attempt: want a merge conflict, got %v", err)
			}
			h.txns.Clock().Update(at)
		}
		return rec, err
	}
	res := refresh()
	if calls != 2 || !res.Retried {
		t.Fatalf("want one retried refresh, got %d calls: %+v", calls, res)
	}
	checkFolded(res)

	// Both attempts conflict: the refresh fails, and the next one folds
	// the accumulated changes from the state of the last commit.
	r.refreshFn = h.ctrl.Refresh
	churn()
	at = conflict()
	if res := refresh(); !errors.Is(res.Err, txn.ErrConflict) || !res.Retried {
		t.Fatalf("want a persistent conflict after one retry: %+v", res)
	}
	h.txns.Clock().Update(at)
	churn()
	res = refresh()
	if res.Err != nil || res.Rec.SourceRowsScanned != 20 {
		t.Fatalf("refresh after a failed merge must fold both intervals' 20 changes: %+v", res)
	}
	if err := h.ctrl.CheckDVS(dt); err != nil {
		t.Fatal(err)
	}
	churn()
	checkFolded(refresh())
}
