package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dyntables"
	"dyntables/internal/core"
	"dyntables/internal/exec"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/server"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// layers accumulates per-layer samples and ratio terms over a run.
type layers struct {
	s   map[string]series
	sum map[string]float64
}

func newLayers() *layers {
	return &layers{s: map[string]series{}, sum: map[string]float64{}}
}

func (l *layers) add(name string, v float64) { l.s[name] = append(l.s[name], v) }
func (l *layers) acc(name string, v float64) { l.sum[name] += v }

// ratio divides two accumulated sums.
func (l *layers) ratio(num, den string) float64 {
	if l.sum[den] == 0 {
		return 0
	}
	return l.sum[num] / l.sum[den]
}

// report sets every per-layer metric that is a median of samples or a
// ratio of sums; the runtime.* and bench.* metrics are set by the
// workload.
func (l *layers) report(r *result) {
	med := func(name, unit string) {
		s := l.s[name]
		r.set(name, s.median(), unit, len(s))
	}
	for _, m := range []struct{ name, unit string }{
		{"sql.parse_us", "us"}, {"sql.parse_allocs", "count"},
		{"plan.bind_us", "us"}, {"plan.bind_allocs", "count"},
		{"exec.run_us", "us"}, {"exec.run_us.point", "us"}, {"exec.run_us.cursor", "us"}, {"exec.run_us.agg", "us"},
		{"ivm.delta_ms", "ms"}, {"ivm.delta_ms.agg", "ms"}, {"ivm.delta_ms.join", "ms"}, {"ivm.delta_ms.union", "ms"},
		{"ivm.delta_rows", "count"}, {"ivm.groups_recomputed", "count"}, {"ivm.snapshot_evals", "count"},
		{"storage.apply_us", "us"}, {"storage.batch_us", "us"}, {"storage.compact_ms", "ms"},
		{"storage.live_versions", "count"}, {"storage.footprint_bytes", "B"},
		{"sched.pass_ms", "ms"}, {"sched.dml_ms", "ms"}, {"sched.step_accounted_pct", "%"},
		{"server.overhead_us", "us"}, {"server.page_us", "us"},
		{"persist.append_us", "us"}, {"persist.record_bytes", "B"},
		{"persist.checkpoint_ms", "ms"}, {"persist.replay_ms", "ms"},
	} {
		if len(l.s[m.name]) > 0 {
			med(m.name, m.unit)
		}
	}
	r.set("exec.scan_rows_per_row_out", l.ratio("exec.scan_rows", "exec.rows_out"), "ratio", int(l.sum["exec.runs"]))
	r.set("exec.allocs_per_row", l.ratio("exec.allocs", "exec.rows_out"), "count/row", int(l.sum["exec.runs"]))
	r.set("ivm.scan_rows_per_delta_row", l.ratio("ivm.scan_rows", "ivm.rows"), "ratio", int(l.sum["ivm.deltas"]))
	r.set("ivm.allocs_per_row", l.ratio("ivm.allocs", "ivm.rows"), "count/row", int(l.sum["ivm.deltas"]))
	r.set("refresher.work_to_pass_ratio", l.ratio("refresher.work_ms", "refresher.pass_worker_ms"), "ratio", int(l.sum["refresher.passes"]))
	for _, name := range []string{"persist.appends", "persist.checkpoints"} {
		if v, ok := l.sum[name]; ok {
			r.set(name, v, "count", 1)
		}
	}
}

// prober times calls into each layer's public functions on a workload's
// real inputs. It runs while the engine is otherwise idle, on one
// goroutine, so allocation deltas belong to the call being measured.
type prober struct {
	eng  *dyntables.Engine
	tr   *tracer
	lay  *layers
	sess *dyntables.Session

	remote *server.RemoteSession
	stopSv func()

	shadow    *shadow
	shadowDir string
}

func newProber(eng *dyntables.Engine, tr *tracer, lay *layers) *prober {
	return &prober{eng: eng, tr: tr, lay: lay, sess: eng.NewSession()}
}

// pin opens a cursor over table on its own session, so compaction keeps
// every version of the table from now until the returned function
// closes it: a probed step's change interval may then span more
// versions than the compaction horizon.
func (p *prober) pin(table string) (func(), error) {
	sess := p.eng.NewSession()
	rows, err := sess.QueryContext(context.Background(), "SELECT * FROM "+table)
	if err != nil {
		sess.Close()
		return nil, err
	}
	return func() {
		rows.Close()
		sess.Close()
	}, nil
}

// withShadow gives the prober a shadow of an in-memory workload's table
// for its persist.* probes.
func (p *prober) withShadow(dir, table, create string) error {
	sh, err := newShadow(dir, p.sess, table, create)
	if err != nil {
		return err
	}
	p.shadow, p.shadowDir = sh, dir
	return nil
}

// close stops the probe server and removes the shadow engine.
func (p *prober) close() {
	if p.stopSv != nil {
		p.stopSv()
	}
	if p.shadow != nil {
		p.shadow.eng.ForceClose()
		os.RemoveAll(p.shadowDir)
	}
	p.sess.Close()
}

// measure runs f under a span and returns its duration and the heap
// objects it allocated.
func (p *prober) measure(parent *Span, name string, f func() error) (time.Duration, float64, error) {
	s := p.tr.begin(parent, name)
	a0 := allocObjects()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	a1 := allocObjects()
	p.tr.end(s)
	return d, float64(a1 - a0), err
}

// parse times sql.Parse on a statement text.
func (p *prober) parse(parent *Span, text string) (sql.Statement, error) {
	var stmt sql.Statement
	d, allocs, err := p.measure(parent, "sql.parse", func() (err error) {
		stmt, err = sql.Parse(text)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.lay.add("sql.parse_us", us(d))
	p.lay.add("sql.parse_allocs", allocs)
	return stmt, nil
}

// bind times plan.NewBinder(eng).BindSelect on a parsed SELECT.
func (p *prober) bind(parent *Span, sel *sql.SelectStmt) (*plan.Bound, error) {
	var b *plan.Bound
	d, allocs, err := p.measure(parent, "plan.bind", func() (err error) {
		b, err = plan.NewBinder(p.eng).BindSelect(sel)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.lay.add("plan.bind_us", us(d))
	p.lay.add("plan.bind_allocs", allocs)
	return b, nil
}

// query parses, binds and runs a SELECT through exec.Run over the tables'
// latest versions, as kind ("point", "cursor" or "agg"). Statements that
// are not SELECTs are only parsed.
func (p *prober) query(parent *Span, kind, text string, args ...int64) error {
	stmt, err := p.parse(parent, text)
	if err != nil {
		return err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil
	}
	b, err := p.bind(parent, sel)
	if err != nil {
		return err
	}
	params := &plan.Params{}
	for _, a := range args {
		params.Positional = append(params.Positional, types.NewInt(a))
	}
	var c exec.Counters
	var rows []exec.TRow
	d, allocs, err := p.measure(parent, "exec.run", func() (err error) {
		ctx := &exec.Context{
			RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
				return s.Table.Rows(int64(s.Table.VersionCount()))
			},
			Now:      p.eng.Now(),
			Counters: &c,
			Params:   params,
		}
		if p.eng.Columnar() {
			ctx.BatchOf = func(s *plan.Scan) (*types.Batch, error) {
				return s.Table.Batch(int64(s.Table.VersionCount()))
			}
		}
		rows, err = exec.Run(b.Plan, ctx)
		return err
	})
	if err != nil {
		return err
	}
	p.lay.add("exec.run_us", us(d))
	p.lay.add("exec.run_us."+kind, us(d))
	p.lay.acc("exec.runs", 1)
	p.lay.acc("exec.scan_rows", float64(c.ScanRows))
	p.lay.acc("exec.rows_out", float64(max(len(rows), 1)))
	p.lay.acc("exec.allocs", allocs)
	return nil
}

// delta times ivm.Delta of a DT's defining query over the interval
// between two of its frontiers, as kind ("agg", "join" or "union").
func (p *prober) delta(parent *Span, dt *core.DynamicTable, kind string, from, to core.Frontier) error {
	stmt, err := p.parse(parent, dt.Text)
	if err != nil {
		return err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return fmt.Errorf("%s: defining query is not a SELECT", dt.Name)
	}
	b, err := p.bind(parent, sel)
	if err != nil {
		return err
	}
	var (
		c  exec.Counters
		st ivm.Stats
		n  int
	)
	d, allocs, err := p.measure(parent, "ivm.delta", func() error {
		env := &ivm.Env{Now: to.DataTS, Counters: &c, Stats: &st, Columnar: p.eng.Columnar()}
		cs, err := ivm.Delta(b.Plan, ivm.Interval{From: from.Versions, To: to.Versions}, env)
		n = len(cs.Changes)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", dt.Name, err)
	}
	p.lay.add("ivm.delta_ms", ms(d))
	p.lay.add("ivm.delta_ms."+kind, ms(d))
	p.lay.acc("ivm.deltas", 1)
	p.lay.acc("ivm.rows", float64(max(n, 1)))
	p.lay.acc("ivm.scan_rows", float64(c.ScanRows))
	p.lay.acc("ivm.allocs", allocs)
	p.lay.acc("ivm.step_rows", float64(n))
	p.lay.acc("ivm.step_groups", float64(st.GroupsRecomputed))
	p.lay.acc("ivm.step_snapshots", float64(st.SubplanSnapshotEvals))
	return nil
}

// endStep turns the per-step ivm sums into one sample each.
func (p *prober) endStep() {
	for _, k := range [][2]string{
		{"ivm.step_rows", "ivm.delta_rows"},
		{"ivm.step_groups", "ivm.groups_recomputed"},
		{"ivm.step_snapshots", "ivm.snapshot_evals"},
	} {
		p.lay.add(k[1], p.lay.sum[k[0]])
		p.lay.sum[k[0]] = 0
	}
}

// storage replays a table's changes between two version sequences on a
// clone taken at the first, timing Apply, then Batch and Compact on the
// clone; the original table is not touched.
func (p *prober) storage(parent *Span, t *storage.Table, fromSeq, toSeq int64) error {
	if toSeq <= fromSeq {
		return nil
	}
	cs, err := t.Changes(fromSeq, toSeq)
	if err != nil {
		return err
	}
	fromV, err := t.VersionBySeq(fromSeq)
	if err != nil {
		return err
	}
	toV, err := t.VersionBySeq(toSeq)
	if err != nil {
		return err
	}
	clone, err := t.Clone(fromV.Commit)
	if err != nil {
		return err
	}
	// Warm the clone's tip the way the live table's tip is warm.
	if _, err := clone.Rows(int64(clone.VersionCount())); err != nil {
		return err
	}
	d, _, err := p.measure(parent, "storage.apply", func() error {
		_, err := clone.Apply(cs, toV.Commit)
		return err
	})
	if err != nil {
		return err
	}
	p.lay.add("storage.apply_us", us(d))
	d, _, err = p.measure(parent, "storage.batch", func() error {
		_, err := clone.Batch(int64(clone.VersionCount()))
		return err
	})
	if err != nil {
		return err
	}
	p.lay.add("storage.batch_us", us(d))
	d, _, err = p.measure(parent, "storage.compact", func() error {
		_, _, err := clone.Compact(int64(clone.VersionCount()))
		return err
	})
	if err != nil {
		return err
	}
	p.lay.add("storage.compact_ms", ms(d))
	return nil
}

// shadow is a durable engine holding a copy of one table of an
// in-memory workload. Those workloads bypass persist; for their
// persist.* probes, each probed step's statements are committed to the
// shadow as well, so the WAL records are the engine's own, for the
// step's own changes.
type shadow struct {
	eng  *dyntables.Engine
	sess *dyntables.Session
}

// newShadow opens a durable engine in dir and copies table into it;
// create is the table's CREATE TABLE statement.
func newShadow(dir string, src *dyntables.Session, table, create string) (*shadow, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	eng, err := dyntables.Open(dir, engineConfig()...)
	if err != nil {
		return nil, err
	}
	sh := &shadow{eng: eng, sess: eng.NewSession()}
	res, err := src.Query("SELECT * FROM " + table)
	if err == nil {
		_, err = sh.sess.Exec(create)
	}
	for lo := 0; err == nil && lo < len(res.Rows); lo += 1000 {
		var rows [][]int64
		for _, row := range res.Rows[lo:min(lo+1000, len(res.Rows))] {
			vals := make([]int64, len(row))
			for i, v := range row {
				vals[i] = v.Int()
			}
			rows = append(rows, vals)
		}
		_, err = sh.sess.Exec(valuesText(table, rows))
	}
	if err != nil {
		eng.ForceClose()
		return nil, fmt.Errorf("shadow %s: %w", table, err)
	}
	return sh, nil
}

// persist commits a step's statements to the shadow engine and reports,
// from PersistStats deltas, the mean WAL append time and bytes of each
// statement's records; then it times one checkpoint.
func (p *prober) persist(parent *Span, texts []string) error {
	for _, text := range texts {
		st0, _ := p.shadow.eng.PersistStats()
		if _, _, err := p.measure(parent, "shadow.exec", func() error {
			_, err := p.shadow.sess.Exec(text)
			return err
		}); err != nil {
			return err
		}
		st1, _ := p.shadow.eng.PersistStats()
		if n := float64(st1.WALAppends - st0.WALAppends); n > 0 {
			p.lay.add("persist.append_us", us(st1.WALAppendTime-st0.WALAppendTime)/n)
			p.lay.add("persist.record_bytes", float64(st1.WALAppendedBytes-st0.WALAppendedBytes)/n)
		}
	}
	d, _, err := p.measure(parent, "engine.checkpoint", p.shadow.eng.Checkpoint)
	if err != nil {
		return err
	}
	p.lay.add("persist.checkpoint_ms", ms(d))
	return nil
}

// footprint samples the live version count and retained bytes of the
// given tables.
func (p *prober) footprint(tables []*storage.Table) {
	versions, bytes := footprint(tables)
	p.lay.add("storage.live_versions", float64(versions))
	p.lay.add("storage.footprint_bytes", float64(bytes))
}

// serve starts an in-process server on a loopback port for the
// server.* probes, unless one is already given.
func (p *prober) serve() error {
	if p.remote != nil {
		return nil
	}
	addr, stop, err := startServer(p.eng)
	if err != nil {
		return err
	}
	p.stopSv = stop
	rs, err := newRemote(addr)
	if err != nil {
		stop()
		return err
	}
	p.remote = rs
	return nil
}

// server times a statement through the server client and in process,
// back to back; the difference is the server layer's overhead. SELECTs
// are also drained through a paged cursor to time one page.
func (p *prober) server(parent *Span, text string, args ...any) error {
	if err := p.serve(); err != nil {
		return err
	}
	ctx := context.Background()
	var remoteRows, localRows int
	dr, _, err := p.measure(parent, "server.roundtrip", func() error {
		res, err := p.remote.Exec(ctx, text, args...)
		if err == nil {
			remoteRows = len(res.Rows)
		}
		return err
	})
	if err != nil {
		return err
	}
	dl, _, err := p.measure(parent, "session.exec", func() error {
		res, err := p.sess.Exec(text, args...)
		if err == nil {
			localRows = len(res.Rows)
		}
		return err
	})
	if err != nil {
		return err
	}
	if remoteRows != localRows {
		return fmt.Errorf("server returned %d rows, session %d: %s", remoteRows, localRows, text)
	}
	p.lay.add("server.overhead_us", us(dr-dl))
	if localRows < 2*probePage {
		return nil
	}
	pages := 0
	dp, _, err := p.measure(parent, "server.cursor", func() error {
		rows, err := p.remote.QueryPaged(ctx, probePage, text, args...)
		if err != nil {
			return err
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		pages = (n + probePage - 1) / probePage
		return rows.Err()
	})
	if err != nil {
		return err
	}
	p.lay.add("server.page_us", us(dp)/float64(max(pages, 1)))
	return nil
}

// pageSize is the cursor page size serve_mixed drains its DT with;
// probePage is the page size of the server.page_us probe, small enough
// that every workload's DT read spans several pages.
const (
	pageSize  = 100
	probePage = 10
)

// startServer serves the engine over HTTP on a loopback port and returns
// its address and a stop function that returns once the server is down.
func startServer(eng *dyntables.Engine) (string, func(), error) {
	srv := server.New(server.Config{Backend: dyntables.NewServerBackend(eng), IdleTimeout: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	stop := func() {
		srv.Shutdown()
		hs.Close()
		<-done
	}
	return ln.Addr().String(), stop, nil
}

// newRemote opens a server session over its own single connection.
func newRemote(addr string) (*server.RemoteSession, error) {
	c := server.NewClient("http://"+addr, "")
	c.SetHTTPClient(&http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	return c.NewSession(context.Background(), "")
}

// scratchDir is a directory under the run's output directory.
func scratchDir(out, name string) string { return filepath.Join(out, "tmp", name) }
