package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dyntables"
	"dyntables/internal/core"
	"dyntables/internal/persist"
	"dyntables/internal/storage"
)

// durable_ingest: one session in a closed loop commits small INSERT and
// DELETE batches to a durable engine (dyntables.Open) with the default
// checkpoint cadence and today's flush policy: the WAL is written on
// every commit and fsynced only at checkpoint or close. One aggregate DT
// is refreshed every few commits. Whenever the WAL tail reaches a fixed
// length the data directory is copied, as a crash would leave it, and
// Open is timed on the copy. persist (the WAL codec, checkpoints on the
// commit path, replay) is heavy here and absent from the other
// workloads.

type ingestParams struct {
	Rows          int `json:"live_rows"`
	BatchRows     int `json:"rows_inserted_and_deleted_per_refresh"`
	RefreshEvery  int `json:"commits_per_refresh"`
	Deletes       int `json:"delete_commits_per_refresh"`
	CopyAtWALTail int `json:"copy_at_wal_records"`
	CopyEvery     int `json:"refreshes_per_crash_copy"`
}

// A refresh cycle is 251 commits and one scheduler pass, which append
// 257 WAL records, one more than the default checkpoint cadence of 256.
// Each crash copy, and set-up, leaves a WAL tail of 128 records, so
// every cycle holds one checkpoint, near its 128th commit, and every
// visible_cpu_ms sample includes one. One commit in 10 is a DELETE, which scans the table and is the
// slowest kind of commit. At 10% of commits, the commit p95 falls in
// the body of the DELETE population, and the checkpoint-bearing commit,
// 0.4% of commits, lies well beyond the p99 boundary.
func ingestScale(scale string) ingestParams {
	if scale == "tiny" {
		return ingestParams{Rows: 500, BatchRows: 450, RefreshEvery: 251, Deletes: 25, CopyAtWALTail: 128, CopyEvery: 4}
	}
	return ingestParams{Rows: 5000, BatchRows: 450, RefreshEvery: 251, Deletes: 25, CopyAtWALTail: 128, CopyEvery: 4}
}

type ingest struct {
	p      ingestParams
	dir    string
	eng    *dyntables.Engine
	sess   *dyntables.Session
	rng    *rand.Rand
	lo, hi int64
	events *storage.Table
	dt     *core.DynamicTable
	// sinceCopy counts refresh cycles since the last crash copy.
	sinceCopy int
}

func (g *ingest) row(id int64) []int64 {
	return []int64{id, int64(g.rng.Intn(37)), int64(g.rng.Intn(1000))}
}

// buildIngest loads the workload's rows into a fresh durable engine,
// checkpoints it, commits a WAL tail of CopyAtWALTail records, and
// crashes it: the data directory is copied as it stands, and the
// workload runs on the engine that Open recovers from the copy. So
// set-up times a checkpoint and the replay of a WAL tail, besides the
// load. The recovered DT's rows must equal the crashed engine's.
func buildIngest(r *result, p ingestParams, seed int64, dir string) (*ingest, error) {
	load := dir + "-load"
	for _, d := range []string{dir, load} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(load)
	eng, err := dyntables.Open(load, engineConfig()...)
	if err != nil {
		return nil, err
	}
	defer eng.ForceClose()
	g := &ingest{p: p, dir: dir, eng: eng, sess: eng.NewSession(), rng: rand.New(rand.NewSource(seed))}
	stmts := []string{
		`CREATE WAREHOUSE wh`,
		`CREATE TABLE events (id INT, g INT, v INT)`,
	}
	for lo := 0; lo < p.Rows; lo += 1000 {
		var rows [][]int64
		for id := lo; id < min(lo+1000, p.Rows); id++ {
			rows = append(rows, g.row(int64(id)))
		}
		stmts = append(stmts, valuesText("events", rows))
	}
	g.hi = int64(p.Rows)
	stmts = append(stmts, `CREATE DYNAMIC TABLE totals `+dtOptions+` AS SELECT g, count(*) c, sum(v) total FROM events GROUP BY g`)
	for _, s := range stmts {
		if _, err := g.sess.Exec(s); err != nil {
			return nil, fmt.Errorf("%.60s: %w", s, err)
		}
	}
	g.eng.AdvanceTime(period)
	if err := g.eng.RunScheduler(); err != nil {
		return nil, err
	}
	if err := g.eng.Checkpoint(); err != nil {
		return nil, err
	}
	if err := g.tail(); err != nil {
		return nil, err
	}
	if err := g.resolve(); err != nil {
		return nil, err
	}
	want, err := dtRowsJSON(g.dt)
	if err != nil {
		return nil, err
	}
	if _, err := copyTree(load, dir); err != nil {
		return nil, err
	}
	if g.eng, err = dyntables.Open(dir, engineConfig()...); err != nil {
		return nil, err
	}
	g.sess = g.eng.NewSession()
	if err := g.resolve(); err != nil {
		g.close()
		return nil, err
	}
	got, err := dtRowsJSON(g.dt)
	if err != nil {
		g.close()
		return nil, err
	}
	r.check(bytes.Equal(got, want), "set-up: recovered totals differ from the crashed engine's")
	return g, nil
}

// tail commits one-row INSERTs, then one DELETE of as many of the
// oldest rows, so the table keeps its size, until the WAL holds
// CopyAtWALTail records.
func (g *ingest) tail() error {
	n := 0
	for {
		st, _ := g.eng.PersistStats()
		if st.WALRecords >= g.p.CopyAtWALTail-1 {
			break
		}
		if _, err := g.sess.Exec(valuesText("events", [][]int64{g.row(g.hi)})); err != nil {
			return err
		}
		g.hi++
		n++
	}
	if n == 0 {
		return nil
	}
	res, err := g.sess.Exec(fmt.Sprintf("DELETE FROM events WHERE id >= %d AND id < %d", g.lo, g.lo+int64(n)))
	if err == nil && res.RowsAffected != n {
		err = fmt.Errorf("tail: deleted %d rows, want %d", res.RowsAffected, n)
	}
	g.lo += int64(n)
	return err
}

// refreshTail runs a scheduler pass over the tail's changes, so that no
// timed cycle carries them.
func (g *ingest) refreshTail() error {
	g.eng.AdvanceTime(period)
	return g.eng.RunScheduler()
}

// resolve looks up the workload's table and DT in its engine.
func (g *ingest) resolve() (err error) {
	if g.events, err = baseTable(g.eng, "events"); err != nil {
		return err
	}
	g.dt, err = g.eng.DynamicTableHandle("totals")
	return err
}

// tables are the storage tables the session writes.
func (g *ingest) tables() []*storage.Table {
	return []*storage.Table{g.events, g.dt.Storage}
}

func (g *ingest) close() {
	g.eng.Close()
	os.RemoveAll(g.dir)
}

// batch is one refresh cycle: RefreshEvery commits, then the scheduler
// pass that makes them visible in the DT.
type batch struct {
	visible, dml, pass time.Duration
	// visibleCPU is the process CPU time the cycle used.
	visibleCPU          time.Duration
	commits, commitsCPU []time.Duration
	texts               []string
	checkpoints         int64
	appends             int64
	appendTime          time.Duration
	appendedBytes       int64
	fromSeq, toSeq      int64
	before, after       core.Frontier
}

func (g *ingest) batch(r *result, tr *tracer) batch {
	var b batch
	b.fromSeq = int64(g.events.VersionCount())
	b.before = g.dt.Frontier().Clone()
	prevTS := g.dt.DataTimestamp()
	st0, _ := g.eng.PersistStats()
	root := tr.begin(nil, "durable_ingest.batch")
	c0 := cpuNow()
	t0 := time.Now()
	for _, c := range churnBatch("events", g.p.RefreshEvery, g.p.Deletes, g.p.BatchRows, &g.lo, &g.hi, g.row) {
		b.texts = append(b.texts, c.text)
		sp := tr.begin(root, "session.exec")
		cs, ts := cpuNow(), time.Now()
		res, err := g.sess.Exec(c.text)
		b.commits = append(b.commits, time.Since(ts))
		b.commitsCPU = append(b.commitsCPU, cpuNow()-cs)
		tr.end(sp)
		if err == nil && res.RowsAffected != c.rows {
			err = fmt.Errorf("%.40s: %d rows affected, want %d", c.text, res.RowsAffected, c.rows)
		}
		r.op(err)
	}
	b.dml = time.Since(t0)
	g.eng.AdvanceTime(period)
	sp := tr.begin(root, "engine.run_scheduler")
	tp := time.Now()
	err := g.eng.RunScheduler()
	end := time.Now()
	b.visibleCPU = cpuNow() - c0
	tr.end(sp)
	tr.end(root)
	b.pass, b.visible = end.Sub(tp), end.Sub(t0)
	r.op(err)
	r.check(g.dt.DataTimestamp().After(prevTS), "totals did not refresh in the batch's pass")
	st1, _ := g.eng.PersistStats()
	b.checkpoints = st1.Checkpoints - st0.Checkpoints
	b.appends = st1.WALAppends - st0.WALAppends
	b.appendTime = st1.WALAppendTime - st0.WALAppendTime
	b.appendedBytes = st1.WALAppendedBytes - st0.WALAppendedBytes
	b.toSeq = int64(g.events.VersionCount())
	b.after = g.dt.Frontier().Clone()
	return b
}

// probe times each layer's public calls on one refresh cycle's real
// inputs.
func (g *ingest) probe(pr *prober, tr *tracer, b batch) error {
	root := tr.begin(nil, "durable_ingest.probe")
	defer tr.end(root)
	for _, text := range b.texts[:10] {
		if _, err := pr.parse(root, text); err != nil {
			return err
		}
	}
	if err := pr.delta(root, g.dt, "agg", b.before, b.after); err != nil {
		return err
	}
	pr.endStep()
	if err := pr.query(root, "agg", g.dt.Text); err != nil {
		return err
	}
	if err := pr.storage(root, g.events, b.fromSeq, b.toSeq); err != nil {
		return err
	}
	pr.footprint(g.tables())
	return pr.server(root, `SELECT g, c, total FROM totals`)
}

// recovery is one crash copy's measurements.
type recovery struct {
	open, replay, checkpoint time.Duration
	diskBytes, liveRows      int64
}

// crashCopy, every CopyEvery refresh cycles, takes a checkpoint and
// commits a WAL tail of CopyAtWALTail records, copies the data
// directory as a crash would leave it, and times Open on the copy. The
// recovered DT's rows must equal the live DT's rows at copy time, byte
// for byte. Last, a scheduler pass refreshes the tail. None of this is
// inside a timed cycle.
func (g *ingest) crashCopy(r *result, tr *tracer, corrupt bool) (recovery, bool, error) {
	if g.sinceCopy++; g.sinceCopy < g.p.CopyEvery {
		return recovery{}, false, nil
	}
	g.sinceCopy = 0
	if err := g.eng.Checkpoint(); err != nil {
		return recovery{}, false, err
	}
	if err := g.tail(); err != nil {
		return recovery{}, false, err
	}
	copyDir := g.dir + "-copy"
	if err := os.RemoveAll(copyDir); err != nil {
		return recovery{}, false, err
	}
	defer os.RemoveAll(copyDir)
	size, err := copyTree(g.dir, copyDir)
	if err != nil {
		return recovery{}, false, err
	}
	want, err := dtRowsJSON(g.dt)
	if err != nil {
		return recovery{}, false, err
	}
	if corrupt {
		want = append(want, ' ')
	}
	rec := recovery{diskBytes: size, liveRows: int64(g.events.RowCount() + g.dt.Storage.RowCount())}
	root := tr.begin(nil, "durable_ingest.recover")
	defer tr.end(root)
	if tr != nil {
		sp := tr.begin(root, "persist.replay")
		t0 := time.Now()
		snap, err := persist.ReadSnapshot(copyDir)
		if err != nil {
			return rec, false, err
		}
		w, _, err := persist.OpenWAL(copyDir, snap.WalSeq)
		if err != nil {
			return rec, false, err
		}
		rec.replay = time.Since(t0)
		tr.end(sp)
		if err := w.Close(); err != nil {
			return rec, false, err
		}
	}
	sp := tr.begin(root, "dyntables.open")
	t0 := time.Now()
	rcv, err := dyntables.Open(copyDir, engineConfig()...)
	rec.open = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return rec, false, err
	}
	err = verifyRecovered(r, rcv, want, tr, root, &rec)
	if cerr := rcv.ForceClose(); err == nil {
		err = cerr
	}
	if err != nil {
		return rec, false, err
	}
	return rec, true, g.refreshTail()
}

// verifyRecovered checks the recovered DT against the live one and, in
// a traced run, times a checkpoint of the recovered engine.
func verifyRecovered(r *result, rcv *dyntables.Engine, want []byte, tr *tracer, root *Span, rec *recovery) error {
	dt, err := rcv.DynamicTableHandle("totals")
	if err != nil {
		return err
	}
	got, err := dtRowsJSON(dt)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(got, want), "recovered totals differ from the live DT at copy time")
	if tr == nil {
		return nil
	}
	sp := tr.begin(root, "engine.checkpoint")
	t0 := time.Now()
	err = rcv.Checkpoint()
	rec.checkpoint = time.Since(t0)
	tr.end(sp)
	return err
}

// dtRowsJSON encodes a DT's current rows in the WAL's row codec.
func dtRowsJSON(dt *core.DynamicTable) ([]byte, error) {
	rows, err := dt.Storage.Rows(int64(dt.Storage.VersionCount()))
	if err != nil {
		return nil, err
	}
	enc, err := persist.EncodeRowMap(rows)
	if err != nil {
		return nil, err
	}
	return json.Marshal(enc)
}

// copyTree copies the regular files under src to dst and returns the
// bytes copied.
func copyTree(src, dst string) (int64, error) {
	var total int64
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		n, err := io.Copy(out, in)
		total += n
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		return err
	})
	return total, err
}

func runDurableIngest(o options, r *result) error {
	p := ingestScale(o.scale)
	r.Params["durable_ingest"] = p
	dir := scratchDir(o.out, fmt.Sprintf("durable_ingest-%d", o.seed))
	g, err := timeSetup(r, setupReps, func() (*ingest, error) { return buildIngest(r, p, o.seed, dir) }, (*ingest).close)
	if err != nil {
		return err
	}
	defer g.close()
	if err := fillRings(g.eng, g.sess, []string{"totals"}, `SELECT count(*) FROM totals`); err != nil {
		return err
	}
	warmUp(func() { g.batch(r, nil) })
	// Bring the WAL to the phase crash copies leave it at.
	if err := g.eng.Checkpoint(); err != nil {
		return err
	}
	if err := g.tail(); err != nil {
		return err
	}
	if err := g.refreshTail(); err != nil {
		return err
	}
	secs := time.Duration(o.seconds * float64(time.Second))
	var (
		commits, visible, bytes series
		commitsCPU, visibleCPU  cpuSeries
		hs                      *hostSpeed
		opens, disk, heap       series
		rows                    float64
		busy                    time.Duration
		ckpts                   int64
		appendTime              time.Duration
		appends, appendedBytes  int64
	)
	run := func(dur time.Duration, tr *tracer, lay *layers, needTails bool) error {
		commits, visible, bytes = nil, nil, nil
		commitsCPU, visibleCPU, hs = cpuSeries{}, cpuSeries{}, newHostSpeed()
		return loop(dur, func() bool {
			return !needTails || len(visible) >= driftSamples && len(commits) >= tailSamples(0.99)
		}, func() error {
			b := g.batch(r, tr)
			for i, c := range b.commits {
				commits = append(commits, ms(c))
				commitsCPU.add(hs, b.commitsCPU[i])
			}
			visible = append(visible, ms(b.visible))
			visibleCPU.add(hs, b.visibleCPU)
			hs.mark()
			rows += float64(2 * g.p.BatchRows)
			busy += b.visible
			ckpts += b.checkpoints
			appends, appendTime, appendedBytes = appends+b.appends, appendTime+b.appendTime, appendedBytes+b.appendedBytes
			bytes = append(bytes, retained(g.tables()))
			if lay != nil {
				lay.add("sched.dml_ms", ms(b.dml))
				lay.add("sched.pass_ms", ms(b.pass))
				lay.add("sched.step_accounted_pct", 100*float64(b.dml+b.pass)/float64(b.visible))
				lay.acc("refresher.work_ms", ms(refreshWork(g.eng, []*core.DynamicTable{g.dt})))
				lay.acc("refresher.pass_worker_ms", ms(b.pass)*float64(g.eng.RefreshWorkers()))
				lay.acc("refresher.passes", 1)
			}
			rec, ok, err := g.crashCopy(r, tr, o.corrupt)
			if err != nil {
				return err
			}
			if ok {
				opens = append(opens, rec.open.Seconds())
				disk = append(disk, float64(rec.diskBytes)/float64(rec.liveRows))
				// Collect the recovered engine here, outside the timed
				// commits, and sample the live heap at this fixed point
				// of the checkpoint cycle.
				heap = append(heap, liveHeapMB())
				if lay != nil {
					lay.add("persist.replay_ms", ms(rec.replay))
					lay.add("persist.checkpoint_ms", ms(rec.checkpoint))
				}
			}
			return nil
		})
	}

	rt0 := readRuntime()
	if !o.trace {
		if err := run(secs, nil, nil, true); err != nil {
			return err
		}
		r.setTail("stmt_ms_p50", commits, 0.5, "ms")
		r.setTail("stmt_ms_p95", commits, 0.95, "ms")
		r.setTail("stmt_ms_p99", commits, 0.99, "ms")
		r.setTail("commit_ms_p50", commits, 0.5, "ms")
		r.setTail("commit_ms_p99", commits, 0.99, "ms")
		r.setTail("visible_ms_p50", visible, 0.5, "ms")
		if len(visible) >= tailSamples(0.95) {
			r.setTail("visible_ms_p95", visible, 0.95, "ms")
		}
		r.set("refresh_rows_per_s", rows/busy.Seconds(), "rows/s", len(visible))
		r.set("recovery_s", opens.median(), "s", len(opens))
		r.set("disk_bytes_per_row", disk.median(), "B/row", len(disk))
		r.set("bench.checkpoints_per_refresh", float64(ckpts)/float64(len(visible)), "count", len(visible))
		r.set("bench.wal_records_per_refresh", float64(appends)/float64(len(visible)), "count", len(visible))
		r.drift(r.setCPU(hs, visibleCPU, commitsCPU, rows), bytes)
		r.setRuntime(rt0, readRuntime(), len(commits))
	} else {
		lay := newLayers()
		tr := newTracer()
		if err := run(secs/2, nil, nil, false); err != nil {
			return err
		}
		untraced := commits
		appends, appendTime, appendedBytes, ckpts = 0, 0, 0, 0
		if err := run(secs/2, tr, lay, false); err != nil {
			return err
		}
		traceCompare(r, untraced, commits)
		r.setRuntime(rt0, readRuntime(), len(untraced)+len(commits))
		lay.acc("persist.appends", float64(appends))
		lay.acc("persist.checkpoints", float64(ckpts))
		r.set("persist.append_us", us(appendTime)/float64(max(appends, 1)), "us", int(appends))
		r.set("persist.record_bytes", float64(appendedBytes)/float64(max(appends, 1)), "B", int(appends))
		pr := newProber(g.eng, tr, lay)
		defer pr.close()
		for i := 0; i < probeSteps(o); i++ {
			unpin, err := pr.pin("events")
			if err != nil {
				return err
			}
			b := g.batch(r, tr)
			err = g.probe(pr, tr, b)
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
	r.check(len(opens) > 0, "no crash copy")

	checkDVS(r, g.eng, []string{"totals"})
	checkQueries(r, g.sess, [][2]string{
		{`SELECT g, c, total FROM totals`, `SELECT g, count(*) c, sum(v) total FROM events GROUP BY g`},
	}, o.corrupt)
	r.set("heap_mb", heap.median(), "MB", len(heap))
	return nil
}
