package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dyntables"
	"dyntables/internal/core"
	"dyntables/internal/storage"
)

// refresh_dag: one client in a closed loop maintains a DAG of dynamic
// tables over an in-memory base table. Each step inserts and deletes the
// same number of base rows (about 1%), advances the clock one refresh
// period and runs a scheduler pass, so the working set stays flat and
// every step is a small-delta incremental refresh of the whole DAG: the
// paper's core path. Most of the work is in ivm, exec, storage and the
// refresher wave; server and persist are bypassed.

type dagParams struct {
	BaseRows int `json:"base_rows"`
	DimRows  int `json:"dim_rows"`
	Churn    int `json:"churn_rows_per_step"`
	Siblings int `json:"siblings"`
	Stmts    int `json:"statements_per_step"`
	Deletes  int `json:"deletes_per_step"`
}

func dagScale(scale string) dagParams {
	if scale == "tiny" {
		return dagParams{BaseRows: 1200, DimRows: 37, Churn: 18, Siblings: 8, Stmts: 10, Deletes: 1}
	}
	return dagParams{BaseRows: 12000, DimRows: 37, Churn: 126, Siblings: 8, Stmts: 10, Deletes: 1}
}

const dagBaseDDL = `CREATE TABLE base (id INT, g INT, v INT)`

type dag struct {
	p    dagParams
	eng  *dyntables.Engine
	sess *dyntables.Session
	rng  *rand.Rand
	// lo and hi bound the live id window [lo, hi).
	lo, hi int64
	base   *storage.Table
	names  []string // every DT, the rollup last
	kinds  []string
	dts    []*core.DynamicTable
}

// row generates the base row with the given id.
func (d *dag) row(id int64) []int64 {
	return []int64{id, int64(d.rng.Intn(d.p.DimRows)), int64(d.rng.Intn(1000))}
}

func buildDAG(p dagParams, seed int64) (*dag, error) {
	d := &dag{p: p, eng: dyntables.New(engineConfig()...), rng: rand.New(rand.NewSource(seed))}
	d.sess = d.eng.NewSession()
	stmts := []string{
		`CREATE WAREHOUSE wh`,
		`CREATE TABLE dim (g INT, name STRING, w INT)`,
		dagBaseDDL,
	}
	var dim []string
	for g := 0; g < p.DimRows; g++ {
		dim = append(dim, fmt.Sprintf("(%d, 'region_%d', %d)", g, g%5, 1+d.rng.Intn(9)))
	}
	stmts = append(stmts, `INSERT INTO dim VALUES `+strings.Join(dim, ", "))
	for lo := 0; lo < p.BaseRows; lo += 1000 {
		var rows [][]int64
		for id := lo; id < min(lo+1000, p.BaseRows); id++ {
			rows = append(rows, d.row(int64(id)))
		}
		stmts = append(stmts, valuesText("base", rows))
	}
	d.hi = int64(p.BaseRows)
	var union []string
	for i := 0; i < p.Siblings; i++ {
		name := fmt.Sprintf("s_%02d", i)
		stmts = append(stmts, fmt.Sprintf(`CREATE DYNAMIC TABLE %s %s AS SELECT g, count(*) c, sum(v) total FROM base WHERE g %% %d = %d GROUP BY g`,
			name, dtOptions, p.Siblings, i))
		d.names, d.kinds = append(d.names, name), append(d.kinds, "agg")
		union = append(union, "SELECT g, c, total FROM "+name)
	}
	stmts = append(stmts,
		`CREATE DYNAMIC TABLE by_region `+dtOptions+` AS SELECT d.name, count(*) c, sum(b.v * d.w) score FROM base b JOIN dim d ON b.g = d.g GROUP BY d.name`,
		`CREATE DYNAMIC TABLE rollup `+dtOptions+` AS `+strings.Join(union, " UNION ALL "))
	d.names = append(d.names, "by_region", "rollup")
	d.kinds = append(d.kinds, "join", "union")
	for _, s := range stmts {
		if _, err := d.sess.Exec(s); err != nil {
			d.eng.Close()
			return nil, fmt.Errorf("%.60s: %w", s, err)
		}
	}
	d.eng.AdvanceTime(period)
	if err := d.eng.RunScheduler(); err != nil {
		d.eng.Close()
		return nil, err
	}
	var err error
	if d.base, err = baseTable(d.eng, "base"); err != nil {
		return nil, err
	}
	if d.dts, err = dtHandles(d.eng, d.names); err != nil {
		return nil, err
	}
	return d, nil
}

// dagStep is what one step measured.
type dagStep struct {
	visible, dml, pass time.Duration
	// visibleCPU is the process CPU time the step used.
	visibleCPU      time.Duration
	stmts, stmtsCPU []time.Duration
	texts           []string
	fromSeq, toSeq  int64
	before, after   []core.Frontier
}

// step runs one change batch and the scheduler pass that makes it
// visible in the rollup. With a tracer, it records a span around each
// call into the engine under one root.
func (d *dag) step(r *result, tr *tracer) dagStep {
	var s dagStep
	batch := churnBatch("base", d.p.Stmts, d.p.Deletes, d.p.Churn, &d.lo, &d.hi, d.row)
	s.fromSeq = int64(d.base.VersionCount())
	if tr != nil {
		s.before = frontiers(d.dts)
	}
	prevTS := d.dts[len(d.dts)-1].DataTimestamp()

	root := tr.begin(nil, "refresh_dag.step")
	c0 := cpuNow()
	t0 := time.Now()
	for _, c := range batch {
		sp := tr.begin(root, "session.exec")
		cs, ts := cpuNow(), time.Now()
		res, err := d.sess.Exec(c.text)
		s.stmts = append(s.stmts, time.Since(ts))
		s.stmtsCPU = append(s.stmtsCPU, cpuNow()-cs)
		tr.end(sp)
		if err == nil && res.RowsAffected != c.rows {
			err = fmt.Errorf("%.40s: %d rows affected, want %d", c.text, res.RowsAffected, c.rows)
		}
		r.op(err)
		s.texts = append(s.texts, c.text)
	}
	s.dml = time.Since(t0)
	d.eng.AdvanceTime(period)
	sp := tr.begin(root, "engine.run_scheduler")
	tp := time.Now()
	err := d.eng.RunScheduler()
	end := time.Now()
	s.visibleCPU = cpuNow() - c0
	tr.end(sp)
	tr.end(root)
	s.pass, s.visible = end.Sub(tp), end.Sub(t0)
	r.op(err)
	r.check(d.dts[len(d.dts)-1].DataTimestamp().After(prevTS), "rollup did not refresh in the step's pass")
	s.toSeq = int64(d.base.VersionCount())
	if tr != nil {
		s.after = frontiers(d.dts)
	}
	return s
}

func runRefreshDAG(o options, r *result) error {
	p := dagScale(o.scale)
	r.Params["refresh_dag"] = p
	d, err := timeSetup(r, setupReps, func() (*dag, error) { return buildDAG(p, o.seed) }, func(d *dag) { d.eng.Close() })
	if err != nil {
		return err
	}
	defer d.eng.Close()
	if err := fillRings(d.eng, d.sess, d.names, `SELECT count(*) FROM dim`); err != nil {
		return err
	}
	warmUp(func() { d.step(r, nil) })
	secs := time.Duration(o.seconds * float64(time.Second))
	var visible, stmts, bytes series
	var visibleCPU, stmtsCPU cpuSeries
	var hs *hostSpeed
	rows := 0.0
	run := func(dur time.Duration, tr *tracer, lay *layers) error {
		visible, stmts, bytes = nil, nil, nil
		visibleCPU, stmtsCPU, hs = cpuSeries{}, cpuSeries{}, newHostSpeed()
		return loop(dur, func() bool {
			return o.trace || len(visible) >= max(driftSamples, tailSamples(0.95)) && len(stmts) >= tailSamples(0.99)
		}, func() error {
			s := d.step(r, tr)
			visible = append(visible, ms(s.visible))
			visibleCPU.add(hs, s.visibleCPU)
			for i, st := range s.stmts {
				stmts = append(stmts, ms(st))
				stmtsCPU.add(hs, s.stmtsCPU[i])
			}
			rows += float64(2 * d.p.Churn)
			bytes = append(bytes, retained(d.tables()))
			hs.mark()
			if lay != nil {
				lay.add("sched.dml_ms", ms(s.dml))
				lay.add("sched.pass_ms", ms(s.pass))
				lay.add("sched.step_accounted_pct", 100*float64(s.dml+s.pass)/float64(s.visible))
				lay.acc("refresher.work_ms", ms(refreshWork(d.eng, d.dts)))
				lay.acc("refresher.pass_worker_ms", ms(s.pass)*float64(d.eng.RefreshWorkers()))
				lay.acc("refresher.passes", 1)
			}
			return nil
		})
	}

	rt0 := readRuntime()
	if !o.trace {
		if err := run(secs, nil, nil); err != nil {
			return err
		}
		r.setTail("visible_ms_p50", visible, 0.5, "ms")
		r.setTail("visible_ms_p95", visible, 0.95, "ms")
		r.setTail("stmt_ms_p50", stmts, 0.5, "ms")
		r.setTail("stmt_ms_p95", stmts, 0.95, "ms")
		r.setTail("stmt_ms_p99", stmts, 0.99, "ms")
		r.set("refresh_rows_per_s", rows/(visible.sum()/1e3), "rows/s", len(visible))
		r.drift(r.setCPU(hs, visibleCPU, stmtsCPU, rows), bytes)
		r.setRuntime(rt0, readRuntime(), len(visible))
	} else {
		lay := newLayers()
		tr := newTracer()
		if err := run(secs/2, nil, nil); err != nil {
			return err
		}
		untraced := visible
		if err := run(secs/2, tr, lay); err != nil {
			return err
		}
		traceCompare(r, untraced, visible)
		r.setRuntime(rt0, readRuntime(), len(untraced)+len(visible))
		pr := newProber(d.eng, tr, lay)
		defer pr.close()
		if err := pr.withShadow(scratchDir(o.out, fmt.Sprintf("shadow-refresh_dag-%d", o.seed)), "base", dagBaseDDL); err != nil {
			return err
		}
		for i := 0; i < probeSteps(o); i++ {
			unpin, err := pr.pin("base")
			if err != nil {
				return err
			}
			err = d.probe(pr, tr, d.step(r, tr))
			unpin()
			if err != nil {
				return err
			}
		}
		lay.report(r)
		if err := tr.write(traceFile(o)); err != nil {
			return err
		}
	}

	// The live heap depends on which versions the row caches hold after
	// the last pass, so it is sampled after each of a few more steps.
	var heap series
	for i := 0; i < 5; i++ {
		d.step(r, nil)
		heap = append(heap, liveHeapMB())
	}
	r.set("heap_mb", heap.median(), "MB", len(heap))

	checkDVS(r, d.eng, d.names)
	checkQueries(r, d.sess, [][2]string{
		{`SELECT g, c, total FROM rollup`, `SELECT g, count(*) c, sum(v) total FROM base GROUP BY g`},
		{`SELECT * FROM rollup`, d.dts[len(d.dts)-1].Text},
		{`SELECT * FROM by_region`, d.dts[len(d.dts)-2].Text},
	}, o.corrupt)
	res, err := d.sess.Query(`SELECT count(*) FROM base`)
	r.op(err)
	if err == nil {
		r.check(fmt.Sprint(res.Rows[0][0]) == fmt.Sprint(d.p.BaseRows), "base holds %v rows, want %d", res.Rows[0][0], d.p.BaseRows)
	}
	return nil
}

// tables are the storage tables the workload writes.
func (d *dag) tables() []*storage.Table {
	out := []*storage.Table{d.base}
	for _, dt := range d.dts {
		out = append(out, dt.Storage)
	}
	return out
}

// probe times each layer's public calls on one step's real inputs.
func (d *dag) probe(pr *prober, tr *tracer, s dagStep) error {
	root := tr.begin(nil, "refresh_dag.probe")
	defer tr.end(root)
	for _, text := range s.texts {
		if _, err := pr.parse(root, text); err != nil {
			return err
		}
	}
	for i, dt := range d.dts {
		if err := pr.delta(root, dt, d.kinds[i], s.before[i], s.after[i]); err != nil {
			return err
		}
	}
	pr.endStep()
	if err := pr.query(root, "agg", d.dts[len(d.dts)-2].Text); err != nil {
		return err
	}
	if err := pr.storage(root, d.base, s.fromSeq, s.toSeq); err != nil {
		return err
	}
	if err := pr.persist(root, s.texts); err != nil {
		return err
	}
	pr.footprint(d.tables())
	return pr.server(root, `SELECT g, c, total FROM rollup`)
}
