package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dyntables"
	"dyntables/internal/core"
	"dyntables/internal/server"
	"dyntables/internal/storage"
)

// serve_mixed: a dashboard reader's statements while dynamic tables
// refresh. One reader sends statements over one loopback connection to
// an in-process server in a closed loop. Between its statements, at
// seeded points, a writer step commits a small churn batch and runs a
// scheduler pass. Both run on one goroutine, so each statement's CPU
// time is its own. The load is on server, sql, plan and the exec read
// path; ivm work is light and persist is bypassed.

type mixParams struct {
	KVRows     int `json:"kv_rows"`
	BaseRows   int `json:"base_rows"`
	DimRows    int `json:"dim_rows"`
	Churn      int `json:"churn_rows_per_write"`
	WriteEvery int `json:"reader_statements_per_write"`
}

func mixScale(scale string) mixParams {
	if scale == "tiny" {
		return mixParams{KVRows: 1000, BaseRows: 500, DimRows: 37, Churn: 10, WriteEvery: 4}
	}
	return mixParams{KVRows: 10000, BaseRows: 5000, DimRows: 37, Churn: 20, WriteEvery: 16}
}

// The reader's statement mix, in percent: point reads, paged cursor
// drains of a DT, aggregates over a DT, and metadata statements.
const (
	pctPoint  = 80
	pctCursor = 10
	pctAgg    = 5
)

const mixBaseDDL = `CREATE TABLE base (id INT, g INT, v INT)`

type mix struct {
	p      mixParams
	eng    *dyntables.Engine
	w      *dyntables.Session
	rng    *rand.Rand
	kv     []int64 // the generated v of each k
	lo, hi int64
	base   *storage.Table
	names  []string // every DT, the last one downstream of the others
	kinds  []string
	dts    []*core.DynamicTable
	remote *server.RemoteSession
	stop   func()
}

func (m *mix) row(id int64) []int64 {
	return []int64{id, int64(m.rng.Intn(m.p.DimRows)), int64(m.rng.Intn(1000))}
}

func buildMix(p mixParams, seed int64) (*mix, error) {
	m := &mix{p: p, eng: dyntables.New(engineConfig()...), rng: rand.New(rand.NewSource(seed))}
	m.w = m.eng.NewSession()
	stmts := []string{
		`CREATE WAREHOUSE wh`,
		`CREATE TABLE kv (k INT, v INT)`,
		`CREATE TABLE dim (g INT, name STRING)`,
		mixBaseDDL,
	}
	m.kv = make([]int64, p.KVRows)
	for lo := 0; lo < p.KVRows; lo += 1000 {
		var rows [][]int64
		for k := lo; k < min(lo+1000, p.KVRows); k++ {
			m.kv[k] = m.rng.Int63n(1 << 40)
			rows = append(rows, []int64{int64(k), m.kv[k]})
		}
		stmts = append(stmts, valuesText("kv", rows))
	}
	var dim []string
	for g := 0; g < p.DimRows; g++ {
		dim = append(dim, fmt.Sprintf("(%d, 'region_%d')", g, g%5))
	}
	stmts = append(stmts, `INSERT INTO dim VALUES `+strings.Join(dim, ", "))
	for lo := 0; lo < p.BaseRows; lo += 1000 {
		var rows [][]int64
		for id := lo; id < min(lo+1000, p.BaseRows); id++ {
			rows = append(rows, m.row(int64(id)))
		}
		stmts = append(stmts, valuesText("base", rows))
	}
	m.hi = int64(p.BaseRows)
	stmts = append(stmts,
		`CREATE DYNAMIC TABLE recent `+dtOptions+` AS SELECT id, g, v FROM base WHERE v < 200`,
		`CREATE DYNAMIC TABLE grp_totals `+dtOptions+` AS SELECT g, count(*) c, sum(v) total FROM base GROUP BY g`,
		`CREATE DYNAMIC TABLE region_totals `+dtOptions+` AS SELECT d.name, sum(t.c) c, sum(t.total) total FROM grp_totals t JOIN dim d ON t.g = d.g GROUP BY d.name`)
	m.names = []string{"recent", "grp_totals", "region_totals"}
	m.kinds = []string{"filter", "agg", "join"}
	for _, s := range stmts {
		if _, err := m.w.Exec(s); err != nil {
			m.close()
			return nil, fmt.Errorf("%.60s: %w", s, err)
		}
	}
	m.eng.AdvanceTime(period)
	if err := m.eng.RunScheduler(); err != nil {
		m.close()
		return nil, err
	}
	var err error
	if m.base, err = baseTable(m.eng, "base"); err != nil {
		m.close()
		return nil, err
	}
	if m.dts, err = dtHandles(m.eng, m.names); err != nil {
		m.close()
		return nil, err
	}
	addr, stop, err := startServer(m.eng)
	if err != nil {
		m.close()
		return nil, err
	}
	m.stop = stop
	if m.remote, err = newRemote(addr); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// tables are the storage tables the writer writes.
func (m *mix) tables() []*storage.Table {
	out := []*storage.Table{m.base}
	for _, dt := range m.dts {
		out = append(out, dt.Storage)
	}
	return out
}

func (m *mix) close() {
	if m.remote != nil {
		m.remote.Close()
	}
	if m.stop != nil {
		m.stop()
	}
	m.eng.Close()
}

// request is one reader statement.
type request struct {
	kind string // point, cursor, agg or meta
	text string
	k    int64
}

func (m *mix) nextRequest(rng *rand.Rand) request {
	switch x := rng.Intn(100); {
	case x < pctPoint:
		return request{kind: "point", text: `SELECT v FROM kv WHERE k = ?`, k: rng.Int63n(int64(m.p.KVRows))}
	case x < pctPoint+pctCursor:
		return request{kind: "cursor", text: `SELECT id, g, v FROM recent`}
	case x < pctPoint+pctCursor+pctAgg:
		return request{kind: "agg", text: `SELECT count(*) c, sum(total) t FROM grp_totals`}
	case x%2 == 0:
		return request{kind: "meta", text: `SHOW DYNAMIC TABLES`}
	default:
		return request{kind: "meta", text: `SELECT name, refresh_mode, target_lag FROM INFORMATION_SCHEMA.DYNAMIC_TABLES`}
	}
}

// send runs one request through the server client and checks its
// output. It returns the number of pages a cursor drain fetched.
func (m *mix) send(q request) (int, error) {
	ctx := context.Background()
	switch q.kind {
	case "point":
		res, err := m.remote.Exec(ctx, q.text, q.k)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0][0]) != fmt.Sprint(m.kv[q.k]) {
			return 0, fmt.Errorf("k=%d returned %v, want %d", q.k, res.Rows, m.kv[q.k])
		}
	case "cursor":
		rows, err := m.remote.QueryPaged(ctx, pageSize, q.text)
		if err != nil {
			return 0, err
		}
		n := 0
		for rows.Next() {
			n++
		}
		err = rows.Err()
		rows.Close()
		if err == nil && n == 0 {
			err = fmt.Errorf("%s returned no rows", q.text)
		}
		return (n + pageSize - 1) / pageSize, err
	case "agg":
		res, err := m.remote.Exec(ctx, q.text)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0][0]) != fmt.Sprint(m.p.DimRows) {
			return 0, fmt.Errorf("%s returned %v", q.text, res.Rows)
		}
	default:
		res, err := m.remote.Exec(ctx, q.text)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != len(m.dts) {
			return 0, fmt.Errorf("%s returned %d rows, want %d", q.text, len(res.Rows), len(m.dts))
		}
	}
	return 0, nil
}

// serverCost splits a request's measured round trip into the server
// layer's share and returns it as a named sample: the same statement
// runs in process right after it, and the difference is
// server.overhead_us. A cursor drain's round trip per page is
// server.page_us.
func (m *mix) serverCost(local *dyntables.Session, q request, rt time.Duration, pages int) (string, float64, error) {
	if q.kind == "cursor" {
		return "server.page_us", us(rt) / float64(max(pages, 1)), nil
	}
	var args []any
	if q.kind == "point" {
		args = append(args, q.k)
	}
	t0 := time.Now()
	_, err := local.Exec(q.text, args...)
	return "server.overhead_us", us(rt - time.Since(t0)), err
}

// writeStep is one writer step's measurements.
type writeStep struct {
	visible, dml, pass time.Duration
	// visibleCPU is the process CPU time the step used.
	visibleCPU     time.Duration
	texts          []string
	fromSeq, toSeq int64
	before, after  []core.Frontier
}

// write commits one churn batch and runs the scheduler pass that makes
// it visible in the last DT.
func (m *mix) write(tr *tracer, probe bool) (writeStep, []error) {
	var s writeStep
	var errs []error
	batch := churnBatch("base", 2, 1, m.p.Churn, &m.lo, &m.hi, m.row)
	s.fromSeq = int64(m.base.VersionCount())
	if probe {
		s.before = frontiers(m.dts)
	}
	last := m.dts[len(m.dts)-1]
	prevTS := last.DataTimestamp()
	root := tr.begin(nil, "serve_mixed.write")
	c0 := cpuNow()
	t0 := time.Now()
	for _, c := range batch {
		sp := tr.begin(root, "session.exec")
		res, err := m.w.Exec(c.text)
		tr.end(sp)
		if err == nil && res.RowsAffected != c.rows {
			err = fmt.Errorf("%.40s: %d rows affected, want %d", c.text, res.RowsAffected, c.rows)
		}
		errs = append(errs, err)
		s.texts = append(s.texts, c.text)
	}
	s.dml = time.Since(t0)
	m.eng.AdvanceTime(period)
	sp := tr.begin(root, "engine.run_scheduler")
	tp := time.Now()
	err := m.eng.RunScheduler()
	end := time.Now()
	s.visibleCPU = cpuNow() - c0
	tr.end(sp)
	tr.end(root)
	s.pass, s.visible = end.Sub(tp), end.Sub(t0)
	if err == nil && !last.DataTimestamp().After(prevTS) {
		err = fmt.Errorf("%s did not refresh in the write's pass", last.Name)
	}
	errs = append(errs, err)
	s.toSeq = int64(m.base.VersionCount())
	if probe {
		s.after = frontiers(m.dts)
	}
	return s, errs
}

// phase is what one load phase measured.
type phase struct {
	stmts, visible, bytes series
	stmtsCPU, visibleCPU  cpuSeries
	hs                    *hostSpeed
	rows                  float64
	busy                  time.Duration
	samples               []request
	ops                   int
}

// writeGap is the seeded number of reader statements before the next
// writer step: exponentially distributed, WriteEvery on average.
func (m *mix) writeGap() int {
	return 1 + int(m.rng.ExpFloat64()*float64(m.p.WriteEvery-1))
}

// load runs the reader's statements for d (longer, up to 3d, until the
// latency tails have enough samples), with the writer's steps
// interleaved at seeded points on the same goroutine, and returns what
// they measured. Errors are recorded in r. Each statement and each
// writer step is timed alone, in wall time and in process CPU time. In a
// traced load, the round trips of every cursor drain and every tenth
// other request are also split into the server layer's share.
func (m *mix) load(r *result, d time.Duration, rng *rand.Rand, tr *tracer, lay *layers, needTails bool) phase {
	ph := phase{hs: newHostSpeed()}
	var local *dyntables.Session
	if lay != nil {
		local = m.eng.NewSession()
		defer local.Close()
	}
	start := time.Now()
	nextWrite := m.writeGap()
	for i := 0; ; i++ {
		el := time.Since(start)
		enough := !needTails || len(ph.visible) >= driftSamples && len(ph.stmts) >= tailSamples(0.99)
		if el >= 3*d || (el >= d && enough) {
			break
		}
		if nextWrite--; nextWrite == 0 {
			nextWrite = m.writeGap()
			s, errs := m.write(tr, false)
			for _, err := range errs {
				r.op(err)
			}
			ph.visible = append(ph.visible, ms(s.visible))
			ph.visibleCPU.add(ph.hs, s.visibleCPU)
			ph.hs.mark()
			ph.bytes = append(ph.bytes, retained(m.tables()))
			ph.rows += float64(2 * m.p.Churn)
			ph.busy += s.visible
			if lay != nil {
				lay.add("sched.dml_ms", ms(s.dml))
				lay.add("sched.pass_ms", ms(s.pass))
				lay.add("sched.step_accounted_pct", 100*float64(s.dml+s.pass)/float64(s.visible))
				lay.acc("refresher.work_ms", ms(refreshWork(m.eng, m.dts)))
				lay.acc("refresher.pass_worker_ms", ms(s.pass)*float64(m.eng.RefreshWorkers()))
				lay.acc("refresher.passes", 1)
			}
		}
		q := m.nextRequest(rng)
		root := tr.begin(nil, "serve_mixed.request")
		sp := tr.begin(root, "server.client."+q.kind)
		c0, t0 := cpuNow(), time.Now()
		pages, err := m.send(q)
		rt := time.Since(t0)
		cpu := cpuNow() - c0
		tr.end(sp)
		tr.end(root)
		if err == nil && lay != nil && (q.kind == "cursor" || i%10 == 0) {
			var cost string
			var v float64
			cost, v, err = m.serverCost(local, q, rt, pages)
			lay.add(cost, v)
		}
		r.op(err)
		ph.stmts = append(ph.stmts, ms(rt))
		ph.stmtsCPU.add(ph.hs, cpu)
		if i%10 == 0 && len(ph.samples) < 200 {
			ph.samples = append(ph.samples, q)
		}
		ph.ops++
	}
	return ph
}

// probe times each layer's public calls on one writer step's real
// inputs.
func (m *mix) probe(pr *prober, tr *tracer, s writeStep) error {
	root := tr.begin(nil, "serve_mixed.probe")
	defer tr.end(root)
	for i, dt := range m.dts {
		if err := pr.delta(root, dt, m.kinds[i], s.before[i], s.after[i]); err != nil {
			return err
		}
	}
	pr.endStep()
	if err := pr.storage(root, m.base, s.fromSeq, s.toSeq); err != nil {
		return err
	}
	pr.footprint(m.tables())
	return pr.persist(root, s.texts)
}

func runServeMixed(o options, r *result) error {
	p := mixScale(o.scale)
	r.Params["serve_mixed"] = p
	m, err := timeSetup(r, setupReps, func() (*mix, error) { return buildMix(p, o.seed) }, (*mix).close)
	if err != nil {
		return err
	}
	defer m.close()
	if err := fillRings(m.eng, m.w, m.names, `SELECT count(*) FROM dim`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed + 1))
	secs := time.Duration(o.seconds * float64(time.Second))
	// Warm caches and the connection; then fill the server's request
	// history ring, which only server traffic writes.
	m.load(r, warmTime, rng, nil, nil, false)
	for len(m.eng.Observability().Requests()) < m.eng.Observability().Capacity() {
		_, err := m.send(request{kind: "point", text: `SELECT v FROM kv WHERE k = ?`, k: rng.Int63n(int64(p.KVRows))})
		r.op(err)
	}

	rt0 := readRuntime()
	if !o.trace {
		ph := m.load(r, secs, rng, nil, nil, true)
		r.setTail("stmt_ms_p50", ph.stmts, 0.5, "ms")
		r.setTail("stmt_ms_p95", ph.stmts, 0.95, "ms")
		r.setTail("stmt_ms_p99", ph.stmts, 0.99, "ms")
		r.setTail("visible_ms_p50", ph.visible, 0.5, "ms")
		if len(ph.visible) >= tailSamples(0.95) {
			r.setTail("visible_ms_p95", ph.visible, 0.95, "ms")
		}
		r.set("refresh_rows_per_s", ph.rows/ph.busy.Seconds(), "rows/s", len(ph.visible))
		r.drift(r.setCPU(ph.hs, ph.visibleCPU, ph.stmtsCPU, ph.rows), ph.bytes)
		r.setRuntime(rt0, readRuntime(), ph.ops+len(ph.visible))
	} else {
		lay := newLayers()
		tr := newTracer()
		untraced := m.load(r, secs/2, rng, nil, nil, false)
		traced := m.load(r, secs/2, rng, tr, lay, false)
		traceCompare(r, untraced.stmts, traced.stmts)
		r.setRuntime(rt0, readRuntime(), untraced.ops+traced.ops+len(untraced.visible)+len(traced.visible))
		pr := newProber(m.eng, tr, lay)
		defer pr.close()
		if err := pr.withShadow(scratchDir(o.out, fmt.Sprintf("shadow-serve_mixed-%d", o.seed)), "base", mixBaseDDL); err != nil {
			return err
		}
		for _, q := range traced.samples {
			root := tr.begin(nil, "serve_mixed.probe")
			var args []int64
			if q.kind == "point" {
				args = append(args, q.k)
			}
			err := pr.query(root, q.kind, q.text, args...)
			tr.end(root)
			if err != nil {
				return err
			}
		}
		for i := 0; i < probeSteps(o); i++ {
			unpin, err := pr.pin("base")
			if err != nil {
				return err
			}
			s, errs := m.write(tr, true)
			for _, err := range errs {
				r.op(err)
			}
			err = m.probe(pr, tr, s)
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

	checkDVS(r, m.eng, m.names)
	checkQueries(r, m.w, [][2]string{
		{`SELECT g, c, total FROM grp_totals`, `SELECT g, count(*) c, sum(v) total FROM base GROUP BY g`},
		{`SELECT * FROM region_totals`, m.dts[len(m.dts)-1].Text},
		{`SELECT * FROM recent`, m.dts[0].Text},
	}, o.corrupt)
	// The live heap depends on which versions the row caches hold after
	// the last pass, so it is sampled after each of a few more writer
	// steps.
	var heap series
	for i := 0; i < 5; i++ {
		_, errs := m.write(nil, false)
		for _, err := range errs {
			r.op(err)
		}
		heap = append(heap, liveHeapMB())
	}
	r.set("heap_mb", heap.median(), "MB", len(heap))
	return nil
}
