package ivm_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dyntables/internal/delta"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// maintained keeps one plan's result the way a dynamic table does: each
// refresh applies Delta's change set to the stored rows and installs the
// staged aggregate state only once that "merge" succeeded.
type maintained struct {
	h      *harness
	p      plan.Node
	stored map[string]types.Row
	at     ivm.VersionMap
	state  ivm.AggState
}

func (h *harness) maintain(query string) *maintained {
	h.t.Helper()
	m := &maintained{h: h, p: h.bind(query), at: h.versions()}
	rows, err := ivm.EvalAsOf(m.p, m.at, h.env)
	if err != nil {
		h.t.Fatal(err)
	}
	m.stored = materialize(rows)
	return m
}

// delta differentiates up to the tables' current versions without
// installing anything.
func (m *maintained) delta(parallelism int) (delta.ChangeSet, ivm.VersionMap, ivm.Stats) {
	m.h.t.Helper()
	to := m.h.versions()
	var st ivm.Stats
	env := &ivm.Env{Now: m.h.env.Now, Columnar: m.h.env.Columnar, Stats: &st,
		Parallelism: parallelism, AggState: &m.state}
	cs, err := ivm.Delta(m.p, ivm.Interval{From: m.at, To: to}, env)
	if err != nil {
		m.h.t.Fatalf("delta: %v", err)
	}
	return cs, to, st
}

// refresh runs one incremental refresh, installs the staged state, and
// requires the stored rows to equal a full evaluation byte for byte.
func (m *maintained) refresh() ivm.Stats {
	m.h.t.Helper()
	cs, to, st := m.delta(0)
	m.stored = applyDelta(m.h.t, m.stored, cs)
	m.state.Install()
	m.at = to
	m.check()
	return st
}

func (m *maintained) check() {
	m.h.t.Helper()
	rows, err := ivm.EvalAsOf(m.p, m.at, m.h.env)
	if err != nil {
		m.h.t.Fatal(err)
	}
	want := materialize(rows)
	if len(want) != len(m.stored) {
		m.h.t.Fatalf("maintained result has %d rows, full evaluation %d\ngot:  %v\nwant: %v",
			len(m.stored), len(want), renderSorted(m.stored), renderSorted(want))
	}
	for id, row := range want {
		if got, ok := m.stored[id]; !ok || encodeRow(got) != encodeRow(row) {
			m.h.t.Fatalf("row %s: maintained %v, full evaluation %v", id, got, row)
		}
	}
}

// encodeRow renders a row with each value's kind and exact bits.
func encodeRow(r types.Row) string {
	var buf []byte
	for _, v := range r {
		buf = v.EncodeKey(buf)
	}
	return string(buf)
}

func vals(vs ...any) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case nil:
			r[i] = types.Null
		case int:
			r[i] = types.NewInt(int64(x))
		case int64:
			r[i] = types.NewInt(x)
		case float64:
			r[i] = types.NewFloat(x)
		default:
			panic(fmt.Sprintf("vals: %T", v))
		}
	}
	return r
}

// deleteWhere deletes the rows of table matching pred.
func (h *harness) deleteWhere(table string, pred func(types.Row) bool) {
	h.t.Helper()
	h.mutate(table, func(rows map[string]types.Row, cs *delta.ChangeSet) {
		for id, r := range rows {
			if pred(r) {
				cs.AddDelete(id, r)
			}
		}
	})
}

func bothPaths(t *testing.T, f func(t *testing.T, h *harness)) {
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) {
			h := newHarness(t)
			h.env.Columnar = columnar
			f(t, h)
		})
	}
}

func TestFoldSteadyStateEvaluatesNoSnapshot(t *testing.T) {
	bothPaths(t, func(t *testing.T, h *harness) {
		h.table("t", "g int, v int")
		for i := 0; i < 40; i++ {
			h.insert("t", vals(i%4, i))
		}
		m := h.maintain(`SELECT g, count(*), sum(v) FROM t GROUP BY g`)

		h.insert("t", vals(1, 100))
		st := m.refresh()
		if st.GroupsFolded != 0 || st.GroupsRecomputed != 1 || st.SubplanSnapshotEvals == 0 {
			t.Fatalf("first refresh must recompute and seed: %+v", st)
		}
		for step := 0; step < 5; step++ {
			h.insert("t", vals(step%4, step), vals(7, step))
			h.deleteWhere("t", func(r types.Row) bool { return r[1].Int() == int64(10+step) })
			st := m.refresh()
			if st.SubplanSnapshotEvals != 0 || st.GroupsRecomputed != 0 || st.GroupsFolded == 0 {
				t.Fatalf("step %d: steady refresh must fold without snapshots: %+v", step, st)
			}
		}
	})
}

func TestFoldGroupEmptiedAndRecreated(t *testing.T) {
	bothPaths(t, func(t *testing.T, h *harness) {
		h.table("t", "g int, v int")
		h.insert("t", vals(1, 10), vals(2, 20), vals(2, 21))
		m := h.maintain(`SELECT g, count(*) c, sum(v) s, avg(v) a FROM t GROUP BY g`)
		h.insert("t", vals(3, 30))
		m.refresh() // seeds

		h.deleteWhere("t", func(r types.Row) bool { return r[0].Int() == 2 })
		if st := m.refresh(); st.GroupsFolded != 1 {
			t.Fatalf("emptying a group must fold: %+v", st)
		}
		if len(m.stored) != 2 {
			t.Fatalf("emptied group must disappear: %v", renderSorted(m.stored))
		}
		h.insert("t", vals(2, 5))
		if st := m.refresh(); st.GroupsFolded != 1 {
			t.Fatalf("re-creating a group must fold: %+v", st)
		}
		// Empty and re-create within one interval.
		h.deleteWhere("t", func(r types.Row) bool { return r[0].Int() == 1 })
		h.insert("t", vals(1, 11), vals(1, 12))
		m.refresh()
	})
}

func TestFoldAllNullSumIsNull(t *testing.T) {
	bothPaths(t, func(t *testing.T, h *harness) {
		h.table("t", "g int, v int")
		h.insert("t", vals(1, 5), vals(2, nil))
		m := h.maintain(`SELECT g, count(*), count(v), sum(v), avg(v), count_if(v > 0) FROM t GROUP BY g`)
		h.insert("t", vals(2, nil))
		m.refresh()
		// Group 1 loses its only non-NULL value: SUM and AVG turn NULL
		// while COUNT(*) stays.
		h.insert("t", vals(1, nil))
		h.deleteWhere("t", func(r types.Row) bool { return !r[1].IsNull() && r[1].Int() == 5 })
		if st := m.refresh(); st.GroupsFolded == 0 {
			t.Fatalf("NULL transitions must fold: %+v", st)
		}
		for _, row := range m.stored {
			if !row[3].IsNull() || !row[4].IsNull() {
				t.Fatalf("all-NULL group must have NULL SUM and AVG: %v", row)
			}
		}
		h.insert("t", vals(2, 7))
		m.refresh()
	})
}

func TestFoldSumWraparound(t *testing.T) {
	bothPaths(t, func(t *testing.T, h *harness) {
		h.table("t", "g int, v int")
		h.insert("t", vals(1, int64(math.MaxInt64)), vals(1, 1))
		m := h.maintain(`SELECT g, sum(v) FROM t GROUP BY g`)
		h.insert("t", vals(1, int64(math.MaxInt64)))
		m.refresh()
		h.insert("t", vals(1, int64(math.MinInt64)), vals(1, 5))
		h.deleteWhere("t", func(r types.Row) bool { return r[1].Int() == 1 })
		if st := m.refresh(); st.GroupsFolded != 1 {
			t.Fatalf("wrapping SUM must fold: %+v", st)
		}
	})
}

func TestFoldRefusesWhatItCannotReproduce(t *testing.T) {
	bothPaths(t, func(t *testing.T, h *harness) {
		h.table("t", "g int, v int, f float")
		h.insert("t", vals(1, 1, 0.5), vals(2, 2, 1.5))
		for _, query := range []string{
			`SELECT g, sum(f) FROM t GROUP BY g`,
			`SELECT g, min(v), count(*) FROM t GROUP BY g`,
			`SELECT g, max(v) FROM t GROUP BY g`,
			`SELECT g, count(DISTINCT v) FROM t GROUP BY g`,
			`SELECT f, count(*) FROM t GROUP BY f`,
		} {
			m := h.maintain(query)
			for step := 0; step < 3; step++ {
				h.insert("t", vals(step%2+1, step, float64(step)+0.25))
				if st := m.refresh(); st.GroupsFolded != 0 || st.GroupsRecomputed == 0 {
					t.Fatalf("%s: must stay on the recompute rule: %+v", query, st)
				}
			}
		}
	})
}

func TestFoldAvgOutsideExactRangeRecomputes(t *testing.T) {
	bothPaths(t, func(t *testing.T, h *harness) {
		h.table("t", "g int, v int")
		h.insert("t", vals(1, 3), vals(1, 4))
		m := h.maintain(`SELECT g, avg(v) FROM t GROUP BY g`)
		h.insert("t", vals(1, 5))
		m.refresh()
		h.insert("t", vals(1, 6))
		if st := m.refresh(); st.GroupsFolded != 1 {
			t.Fatalf("small AVG must fold: %+v", st)
		}
		// A value beyond ±2^31 makes the float sum order-dependent: the
		// group recomputes (and reseeds) until the value is gone.
		h.insert("t", vals(1, int64(1)<<60+1))
		if st := m.refresh(); st.GroupsFolded != 0 {
			t.Fatalf("wide AVG must recompute: %+v", st)
		}
		h.insert("t", vals(1, 7))
		if st := m.refresh(); st.GroupsFolded != 0 {
			t.Fatalf("AVG over a wide value must recompute: %+v", st)
		}
		h.deleteWhere("t", func(r types.Row) bool { return r[1].Int() > 1<<31 })
		m.refresh()
		h.insert("t", vals(1, 8))
		if st := m.refresh(); st.GroupsFolded != 1 {
			t.Fatalf("AVG must fold again once the wide value is gone: %+v", st)
		}
	})
}

func TestFoldUnchangedInputKeepsState(t *testing.T) {
	h := newHarness(t)
	h.table("t", "g int, v int")
	h.table("u", "g int, v int")
	h.insert("t", vals(1, 1))
	h.insert("u", vals(1, 1))
	m := h.maintain(`SELECT g, sum(v) FROM t GROUP BY g UNION ALL SELECT g, count(*) FROM u GROUP BY g`)
	h.insert("t", vals(1, 2))
	h.insert("u", vals(2, 2))
	m.refresh() // seeds both branches
	for step := 0; step < 4; step++ {
		// Only one branch's input changes; the other must keep its state
		// valid for the next interval.
		table := []string{"t", "u"}[step%2]
		h.insert(table, vals(step, step))
		if st := m.refresh(); st.GroupsRecomputed != 0 || st.GroupsFolded != 1 {
			t.Fatalf("step %d: %+v", step, st)
		}
	}
	// An empty interval leaves both branches foldable.
	m.refresh()
	h.insert("t", vals(1, 9))
	h.insert("u", vals(1, 9))
	if st := m.refresh(); st.GroupsRecomputed != 0 || st.GroupsFolded != 2 {
		t.Fatalf("after empty interval: %+v", st)
	}
}

func TestFoldStagedStateIsNotInstalledOnFailure(t *testing.T) {
	h := newHarness(t)
	h.table("t", "g int, v int")
	h.insert("t", vals(1, 1), vals(2, 2))
	m := h.maintain(`SELECT g, count(*), sum(v) FROM t GROUP BY g`)
	h.insert("t", vals(1, 3))
	m.refresh()

	// A differentiation whose merge "fails": the staged state is
	// discarded and the stored rows stay as they were.
	h.insert("t", vals(2, 4))
	m.delta(0)
	m.state.Discard()
	// A retry over a longer interval from the same start still folds
	// from the state at the start.
	h.insert("t", vals(1, 5))
	if st := m.refresh(); st.GroupsFolded != 2 || st.SubplanSnapshotEvals != 0 {
		t.Fatalf("retry must fold from the previous state: %+v", st)
	}

	// A staged but never-installed update must not leak into the next
	// differentiation either: Delta starts from the installed state.
	h.insert("t", vals(1, 6))
	m.delta(0)
	h.insert("t", vals(2, 7))
	m.refresh()
}

func TestFoldNestedAndJoinedAggregates(t *testing.T) {
	bothPaths(t, func(t *testing.T, h *harness) {
		h.table("f", "g int, h int, v int")
		h.table("d", "g int, name int")
		for i := 0; i < 30; i++ {
			h.insert("f", vals(i%5, i%3, i))
		}
		for g := 0; g < 5; g++ {
			h.insert("d", vals(g, g%2))
		}
		joined := h.maintain(`SELECT d.name, count(*), sum(f.v * 2) FROM f JOIN d ON f.g = d.g GROUP BY d.name`)
		nested := h.maintain(`SELECT g, sum(c), count(*) FROM (SELECT g, h, count(*) c FROM f GROUP BY g, h) x GROUP BY g`)
		for step := 0; step < 6; step++ {
			h.insert("f", vals(step%5, step%3, 100+step))
			h.deleteWhere("f", func(r types.Row) bool { return r[2].Int() == int64(step*4) })
			if step == 3 {
				h.mutate("d", func(rows map[string]types.Row, cs *delta.ChangeSet) {
					for id, r := range rows {
						if r[0].Int() == 1 {
							cs.AddDelete(id, r)
							cs.AddInsert(id, vals(1, 5))
						}
					}
				})
			}
			joined.refresh()
			nested.refresh()
		}
	})
}

func TestFoldParallelBranchesStageTogether(t *testing.T) {
	h := newHarness(t)
	h.table("t", "g int, v int")
	for i := 0; i < 50; i++ {
		h.insert("t", vals(i%6, i))
	}
	m := h.maintain(`SELECT g, count(*), sum(v) FROM t GROUP BY g UNION ALL SELECT v % 4, count_if(v > 10), count(v) FROM t GROUP BY v % 4`)
	for step := 0; step < 8; step++ {
		h.insert("t", vals(step%6, 200+step), vals(9, step))
		h.deleteWhere("t", func(r types.Row) bool { return r[1].Int() == int64(step*3) })
		if step == 4 {
			// A failed merge under parallel staging: nothing installs.
			m.delta(4)
			m.state.Discard()
		}
		cs, to, st := m.delta(4)
		m.stored = applyDelta(t, m.stored, cs)
		m.state.Install()
		m.at = to
		m.check()
		if step > 0 && (st.GroupsRecomputed != 0 || st.GroupsFolded == 0) {
			t.Fatalf("step %d: both branches must fold: %+v", step, st)
		}
	}
}

// TestFoldOracleRandomized drives random churn with NULLs, group moves,
// extreme values and empty intervals through several aggregate shapes,
// checking the maintained result against a full evaluation after every
// refresh.
func TestFoldOracleRandomized(t *testing.T) {
	queries := []string{
		`SELECT g, count(*), count(v), sum(v), count_if(v > 0), avg(w) FROM t GROUP BY g`,
		`SELECT g % 2 AS p, sum(v), count(w) FROM t WHERE w IS NOT NULL GROUP BY g % 2`,
		`SELECT g, w, sum(v + w) FROM t GROUP BY g, w`,
		`SELECT g, min(v), count(*) FROM t GROUP BY g`,
	}
	for seed := int64(1); seed <= 4; seed++ {
		bothPaths(t, func(t *testing.T, h *harness) {
			rng := rand.New(rand.NewSource(seed))
			h.table("t", "g int, v int, w int")
			value := func() any {
				switch rng.Intn(8) {
				case 0:
					return nil
				case 1:
					return int64(math.MaxInt64 - rng.Intn(3))
				case 2:
					return int64(1)<<40 + int64(rng.Intn(5))
				default:
					return rng.Intn(50) - 10
				}
			}
			for i := 0; i < 20; i++ {
				h.insert("t", vals(rng.Intn(5), value(), rng.Intn(4)))
			}
			var ms []*maintained
			for _, q := range queries {
				ms = append(ms, h.maintain(q))
			}
			var folded int64
			for step := 0; step < 40; step++ {
				switch rng.Intn(4) {
				case 0: // empty interval
				case 1:
					h.insert("t", vals(rng.Intn(6), value(), rng.Intn(4)), vals(rng.Intn(6), value(), nil))
				case 2:
					g := int64(rng.Intn(6))
					h.deleteWhere("t", func(r types.Row) bool { return r[0].Int() == g })
				default:
					h.mutate("t", func(rows map[string]types.Row, cs *delta.ChangeSet) {
						for id, r := range rows {
							if rng.Intn(4) == 0 {
								cs.AddDelete(id, r)
								cs.AddInsert(id, types.Row{types.NewInt(int64(rng.Intn(6))), vals(value())[0], r[2]})
							}
						}
					})
				}
				for _, m := range ms {
					folded += m.refresh().GroupsFolded
				}
			}
			if folded == 0 {
				t.Fatal("randomized churn never folded")
			}
		})
	}
}
