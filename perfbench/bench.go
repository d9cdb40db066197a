package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dyntables/internal/storage"
)

// endToEndNames are the metrics an untraced run prints in its result
// line; every workload emits each of them. They must match the
// end_to_end list of BENCHMARK.json.
var endToEndNames = []string{
	"setup_s", "heap_mb",
	"visible_cpu_ms_p50",
	"stmt_cpu_ms_p50", "stmt_cpu_ms_p95",
	"refresh_rows_per_cpu_s",
}

// perLayerNames are the metrics a traced run prints in its result line;
// every workload emits each of them. They must match the per_layer list
// of BENCHMARK.json.
var perLayerNames = []string{
	"sql.parse_us", "sql.parse_allocs",
	"plan.bind_us", "plan.bind_allocs",
	"exec.run_us", "exec.scan_rows_per_row_out", "exec.allocs_per_row",
	"ivm.delta_ms", "ivm.delta_rows", "ivm.groups_recomputed", "ivm.snapshot_evals",
	"ivm.scan_rows_per_delta_row", "ivm.allocs_per_row",
	"storage.apply_us", "storage.batch_us", "storage.compact_ms",
	"storage.live_versions", "storage.footprint_bytes",
	"sched.pass_ms", "sched.dml_ms", "refresher.work_to_pass_ratio",
	"server.overhead_us", "server.page_us",
	"persist.append_us", "persist.record_bytes", "persist.checkpoint_ms",
	"runtime.gc_cycles", "runtime.gc_pause_ms_p99", "runtime.alloc_bytes_per_op",
	"bench.trace_overhead_pct",
}

// metric is one reported number with its unit and the number of samples
// behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

// result collects everything one run reports.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Provenance map[string]any    `json:"provenance"`
	Params     map[string]any    `json:"params"`
	Metrics    map[string]metric `json:"metrics"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
}

func newResult(o options) *result {
	return &result{
		Workload: o.workload,
		Seed:     o.seed,
		Trace:    o.trace,
		Provenance: map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"seconds":    o.seconds,
			"scale":      o.scale,
		},
		Params:  map[string]any{},
		Metrics: map[string]metric{},
	}
}

func (r *result) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// op counts one attempted operation and records its failure, if any.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err.Error())
	}
}

// check counts one output check; a false ok is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(fmt.Sprintf(format, args...))
	}
}

func (r *result) fail(msg string) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, msg)
	}
}

// line is the result line: the end-to-end metrics of an untraced run or
// the per-layer metrics of a traced one.
func (r *result) line() map[string]any {
	names := endToEndNames
	if r.Trace {
		names = perLayerNames
	}
	ms := make(map[string]any, len(names))
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			continue
		}
		ms[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   ms,
	}
}

// print writes the human-readable report, then the result line last.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	for _, k := range sortedKeys(r.Provenance) {
		fmt.Fprintf(w, "  provenance %-12s %v\n", k, r.Provenance[k])
	}
	for _, k := range sortedKeys(r.Params) {
		fmt.Fprintf(w, "  param      %-12s %v\n", k, r.Params[k])
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d\n", k, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "  failed_ops_frac %.6f (%d of %d)\n", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	b, err := json.Marshal(r.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// series is a list of samples.
type series []float64

func (s series) sorted() series {
	c := append(series(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank q-quantile.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s series) median() float64 { return s.quantile(0.5) }

func (s series) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tailSamples is the minimum sample count for which the q-quantile has
// at least ten samples beyond it.
func tailSamples(q float64) int { return int(math.Ceil(10/(1-q) - 1e-9)) }

// setTail reports the q-quantile of s under name, or records a failure
// when s is too short for it to have ten samples beyond it. A series
// long enough for several such windows is cut into that many
// consecutive windows of equal length, and the median of the windows'
// quantiles is reported: a burst of host noise (CPU steal on a shared
// machine) then moves one window's tail, not the run's figure.
func (r *result) setTail(name string, s series, q float64, unit string) {
	w := tailSamples(q)
	k := len(s) / w
	if k == 0 {
		r.check(false, "%s: %d samples, need %d", name, len(s), w)
		return
	}
	var tails series
	for i := 0; i < k; i++ {
		tails = append(tails, s[i*len(s)/k:(i+1)*len(s)/k].quantile(q))
	}
	r.set(name, tails.median(), unit, len(s))
}

// drift checks that a run's working set stays flat. It compares the
// median of the first quarter of the run's steps with the median of the
// last quarter, for the bytes the workload's tables retain (sampled
// after every step, so the median smooths over where the compaction
// horizon falls) and for the step latency. The run fails when the
// retained bytes grow by more than footprintDriftBound. The latency
// drift is only reported: on a shared host, CPU steal from other
// tenants alone moved quarter medians by more than 50%.
func (r *result) drift(steps, bytes series) {
	if len(steps) < driftSamples {
		r.check(false, "drift: %d steps, need %d", len(steps), driftSamples)
		return
	}
	growth := func(s series) float64 {
		n := len(s) / 4
		first, last := s[:n].median(), s[len(s)-n:].median()
		return (last - first) / first
	}
	n := len(steps) / 4 * 2
	r.set("bench.step_drift_frac", growth(steps), "frac", n)
	g := growth(bytes)
	r.set("bench.footprint_drift_frac", g, "frac", n)
	r.check(g <= footprintDriftBound, "retained bytes grow %.1f%% from the first to the last quarter of the run (bound %.0f%%): the working set is not flat", 100*g, 100*footprintDriftBound)
}

// driftSamples is the fewest steps a run needs for its drift check: ten
// in each quarter.
const driftSamples = 40

// retained is the bytes the given tables retain.
func retained(tables []*storage.Table) float64 {
	_, bytes := footprint(tables)
	return float64(bytes)
}

// rt reads the process-wide runtime counters behind the runtime.*
// metrics. The values cover the whole process, not one layer.
type rt struct {
	cycles     uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

func readRuntime() rt {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return rt{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), pauses: s[2].Value.Float64Histogram()}
}

// allocObjects is the process-wide count of heap objects allocated so
// far. ReadMemStats flushes the per-P caches, so the count is exact;
// deltas of it count one call's allocations only while no other
// goroutine allocates.
func allocObjects() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setRuntime reports the runtime.* metrics between two readings over ops
// operations.
func (r *result) setRuntime(a, b rt, ops int) {
	r.set("runtime.gc_cycles", float64(b.cycles-a.cycles), "count", 1)
	var counts []uint64
	total := uint64(0)
	for i := range b.pauses.Counts {
		c := b.pauses.Counts[i] - a.pauses.Counts[i]
		counts = append(counts, c)
		total += c
	}
	p99 := 0.0
	if total > 0 {
		want := uint64(math.Ceil(0.99 * float64(total)))
		acc := uint64(0)
		for i, c := range counts {
			acc += c
			if acc >= want {
				// Upper bucket edge; the last bucket may be unbounded.
				p99 = b.pauses.Buckets[i+1]
				if math.IsInf(p99, 1) {
					p99 = b.pauses.Buckets[i]
				}
				break
			}
		}
	}
	r.set("runtime.gc_pause_ms_p99", p99*1e3, "ms", int(total))
	r.set("runtime.alloc_bytes_per_op", float64(b.allocBytes-a.allocBytes)/float64(max(ops, 1)), "B/op", ops)
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// Span is one traced call into a layer: spans of one workload step share
// a root id.
type Span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Root    int64   `json:"root"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	start   time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent, or a new root when parent is nil.
func (t *tracer) begin(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &Span{ID: t.next, Name: name}
	t.mu.Unlock()
	s.Root = s.ID
	if parent != nil {
		s.Parent, s.Root = parent.ID, parent.Root
	}
	s.start = time.Now()
	s.StartUS = float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3
	return s
}

// end closes the span and returns its duration.
func (t *tracer) end(s *Span) time.Duration {
	if t == nil || s == nil {
		return 0
	}
	now := time.Now()
	s.EndUS = float64(now.Sub(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
	return now.Sub(s.start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setupReps is how many times each run builds its workload to report
// the median as setup_s.
const setupReps = 11

// timeSetup builds a workload's engine reps times and reports the median
// normalised CPU time of a build as setup_s; it returns the last build
// and closes the others.
func timeSetup[T any](r *result, reps int, build func() (T, error), discard func(T)) (T, error) {
	var (
		times cpuSeries
		last  T
	)
	hs := newHostSpeed()
	for i := 0; i < reps; i++ {
		// Start each build from a collected heap, so no build pays for
		// collecting the one before it.
		runtime.GC()
		c0 := cpuNow()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times.add(hs, cpuNow()-c0)
		for j := 0; j < 3; j++ {
			hs.mark()
		}
		if i < reps-1 {
			discard(v)
		}
		last = v
	}
	r.set("setup_s", hs.normalise(times).median()/1e3, "s", reps)
	return last, nil
}
