package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The gated timings are process CPU time, normalised to a reference
// speed of the host.
//
// CPU time leaves out the time the host steals from a virtual CPU and
// the time a thread waits for one, but a shared host still runs the same
// instructions faster or slower from one moment to the next: a
// hyperthread sibling or a neighbour competes for the core, the clock
// frequency changes. In one 30-second run, the median CPU time of a
// refresh_dag step over windows of ten steps ranged from 86 ms to
// 140 ms. So, beside its steps, a run times a fixed piece of work that
// does not touch the engine (the reference: sorting a copy of a fixed
// slice, which allocates nothing and stays in cache), and reports each
// CPU time as measured × refNominal / the reference's time around it.
// In another 30-second run, window medians of the step's CPU time and
// of the reference's tracked each other with correlation 0.93, and
// their ratio varied by 4%, against 11% for the step's CPU time alone.

// refNominal is about the reference's CPU time on a quiet core of the
// host the benchmark was built on (a shared 2-vCPU x86-64 cloud
// machine). A normalised timing is what the measured one would have
// been at that speed.
const refNominal = 1200 * time.Microsecond

// refWindow is how many reference samples on each side of a CPU-time
// sample make up its local reference time (their median).
const refWindow = 5

// reference is the fixed work that measures the host's speed.
type reference struct {
	src, buf []int64
	sink     int64
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	f := &reference{src: make([]int64, 1<<12), buf: make([]int64, 1<<12)}
	for i := range f.src {
		f.src[i] = rng.Int63()
	}
	return f
}

// run does the reference work once and returns the CPU time of its
// thread. The goroutine is locked to the thread, so work the collector
// does meanwhile, on another thread, is not counted: the reference
// measures the host, not the engine's garbage.
func (f *reference) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPUTime)
	for i := 0; i < 4; i++ {
		copy(f.buf, f.src)
		slices.Sort(f.buf)
	}
	f.sink += f.buf[len(f.buf)/2]
	return cpuClock(clockThreadCPUTime) - t0
}

// cpuNow is the CPU time, user and system, that every thread of the
// process has used so far.
func cpuNow() time.Duration { return cpuClock(clockProcessCPUTime) }

// The Linux CPU-time clocks of clock_gettime.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

// hostSpeed holds the reference samples of one phase of a run, in order.
type hostSpeed struct {
	ref  *reference
	refs series // ms
}

func newHostSpeed() *hostSpeed { return &hostSpeed{ref: newReference()} }

// mark times the reference once. Workloads call it after every step.
func (h *hostSpeed) mark() { h.refs = append(h.refs, ms(h.ref.run())) }

// cpuSeries is CPU-time samples in ms, each tagged with the number of
// reference marks taken before it.
type cpuSeries struct {
	v    series
	mark []int
}

// add records a CPU time taken now.
func (c *cpuSeries) add(h *hostSpeed, d time.Duration) {
	c.v = append(c.v, ms(d))
	c.mark = append(c.mark, len(h.refs))
}

// normalise returns the samples at the reference speed: each is scaled
// by refNominal over the median of the reference marks within refWindow
// of it.
func (h *hostSpeed) normalise(c cpuSeries) series {
	if len(h.refs) == 0 {
		h.mark()
	}
	out := make(series, len(c.v))
	for i, v := range c.v {
		m := min(c.mark[i], len(h.refs)-1)
		local := h.refs[max(m-refWindow, 0):min(m+refWindow+1, len(h.refs))].median()
		out[i] = v * ms(refNominal) / local
	}
	return out
}

// slowdown is the phase's median reference time over refNominal: above
// 1 when the host ran slower than nominal.
func (h *hostSpeed) slowdown() float64 { return h.refs.median() / ms(refNominal) }

// setCPU reports a phase's gated CPU-time metrics, normalised: the CPU
// time from a change batch's first statement to the end of the pass that
// makes it visible, the CPU time of each statement, and the change rows
// per CPU second of those steps. It returns the normalised step times.
func (r *result) setCPU(h *hostSpeed, visible, stmts cpuSeries, rows float64) series {
	vis, st := h.normalise(visible), h.normalise(stmts)
	r.setTail("visible_cpu_ms_p50", vis, 0.5, "ms")
	r.setTail("stmt_cpu_ms_p50", st, 0.5, "ms")
	r.setTail("stmt_cpu_ms_p95", st, 0.95, "ms")
	r.set("refresh_rows_per_cpu_s", rows/(vis.sum()/1e3), "rows/cpu_s", len(vis))
	r.set("bench.host_slowdown", h.slowdown(), "ratio", len(h.refs))
	return vis
}
