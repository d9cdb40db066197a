// Command perfbench is the repository benchmark. It runs one workload,
// generated from a seed, against the engine in this process, checks the
// engine's outputs, and prints every metric by name with its unit and
// sample count. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) brackets each call into a layer with a span, writes
// the spans under --out, and reports the per-layer metrics. The process
// exits non-zero when any operation or output check fails.
//
//	go run . --workload refresh_dag --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// footprintDriftBound is the largest growth, from the first to the last
// quarter of a run, of the median bytes its tables retain that the run
// accepts: the working set is meant to be flat.
const footprintDriftBound = 0.1

// Before timing starts, and after the history rings are full, each
// workload runs untimed steps for warmTime and at least minWarmSteps
// steps, so caches are warm and every version chain, a DT's included,
// has reached its steady length.
const (
	warmTime     = 2 * time.Second
	minWarmSteps = 2 * compactionHorizon
)

func warmUp(step func()) {
	start := time.Now()
	for i := 0; i < minWarmSteps || time.Since(start) < warmTime; i++ {
		step()
	}
}

// procs is the benchmark's GOMAXPROCS. The gated timings are process
// CPU time, and with one P the process's CPU time is the work it does:
// with more, an idle P runs the collector's idle mark workers and
// spinning scheduler threads, whose CPU time grows with the idle time a
// run happens to have, and so falls when the host is busy.
const procs = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	scale    string
	corrupt  bool
}

var workloads = map[string]func(options, *result) error{
	"refresh_dag":    runRefreshDAG,
	"serve_mixed":    runServeMixed,
	"durable_ingest": runDurableIngest,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "refresh_dag, serve_mixed or durable_ingest")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for spans, results and scratch files")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for the self-test")
	fs.BoolVar(&o.corrupt, "corrupt-check", false, "corrupt one output check's expected value (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(procs)
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (o.scale != "full" && o.scale != "tiny") {
		fmt.Fprintf(stderr, "perfbench: bad arguments %v\n", args)
		return 2
	}
	r := newResult(o)
	if err := w(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	if err := writeResult(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := r.print(stdout); err != nil {
		return 2
	}
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// probeSteps is how many workload steps the traced run probes layer by
// layer once its timed phases end.
func probeSteps(o options) int {
	if o.scale == "tiny" {
		return 3
	}
	return 12
}

func traceFile(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
}

// writeResult stores the full result, provenance included, next to the
// spans.
func writeResult(o options, r *result) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)), b, 0o644)
}
