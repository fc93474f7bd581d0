package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// set-up time counts from here.
var processStart = time.Now()

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  float64
	short    bool
	traceDir string
	log      io.Writer
	// epoch is the start of the process, for the first run made in it:
	// that run's first set-up counts from there. Later runs of the same
	// process count from their own start.
	epoch time.Time
	ref   *reference // nil: load the committed one during set-up
}

func (o *options) sizes() sizes {
	if o.short {
		return shortSizes()
	}
	return fullSizes()
}

// repeats scales a repetition count: the smoke test needs every code
// path once, not a steady median.
func (o *options) repeats(n int) int {
	if o.short {
		return 1
	}
	return n
}

// passResult is one pass over a workload's cells: boot, run and close of
// every cell, one after another.
type passResult struct {
	wallNs, cpuNs       int64
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPauseNs           uint64
	cells               []outcome
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runPass runs every cell once. The collection and the MemStats reads
// (which stop the world) stay outside the timed region.
func runPass(w *workload, seed uint64, tr *tracer) passResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := passResult{cells: make([]outcome, len(w.cells))}
	cpu0, t0 := cpuTime(), time.Now()
	for i, c := range w.cells {
		p.cells[i] = runCell(c, seed, tr)
	}
	p.wallNs, p.cpuNs = int64(time.Since(t0)), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	p.allocBytes, p.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	p.gcCycles, p.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	return p
}

// result is what one workload run reports.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	failures  []string
	drifted   map[string]bool // flagged-exact cells whose modeled results moved
	passes    int
	metrics   *metricSet
	// samples are the per-pass values behind each end-to-end median.
	samples map[string][]float64
	// resolution is, per end-to-end metric, how far the metric taken over
	// the even passes lies from the one over the odd passes: what the run
	// itself says about how finely it resolves the metric.
	resolution map[string]float64
	// exact are the counts that must repeat bit for bit between two runs
	// of the same code at the same seed.
	exact map[string]uint64
	// The traced pass's books, for the invariants the smoke test holds
	// them to: span self-times add up to the pass, categories to clocks.
	tracedWallNs, spanSelfNs int64
	clockNs, categoryNs      uint64
}

func (r *result) correct() bool { return r.failed == 0 }

// judge checks one pass against the reference and books its failures.
func (r *result) judge(ref *reference, w *workload, p passResult, seed uint64, counted bool) {
	failures, drifted := ref.check(w, p.cells, seed)
	for _, d := range drifted {
		r.drifted[d] = true
	}
	if counted {
		r.attempted += len(w.cells)
		r.failed += len(failures)
	}
	for _, f := range failures {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, f)
		}
	}
}

// setUp is everything before the first timed pass: the reference, the
// cell lists, and a warm-up pass that fills the pools.
func setUp(o *options, name string) (*reference, *workload, passResult, error) {
	ref := o.ref
	if ref == nil {
		var err error
		if ref, err = loadReference(); err != nil {
			return nil, nil, passResult{}, err
		}
	}
	for _, w := range workloads(o.sizes()) {
		if w.name == name {
			return ref, w, runPass(w, o.seed, nil), nil
		}
	}
	return nil, nil, passResult{}, fmt.Errorf("unknown workload %q", name)
}

// setUpRounds is how often set-up is repeated for its median. The first
// round alone pays process start and heap growth, so the median is a warm
// round, which is the steadier figure.
const setUpRounds = 5

// runUntraced produces the end-to-end metrics: set-up, then timed passes
// with tracing off until the time is used up.
func runUntraced(o *options, name string) (*result, error) {
	r := &result{workload: name, drifted: map[string]bool{}, samples: map[string][]float64{}, exact: map[string]uint64{}, resolution: map[string]float64{}}
	var ref *reference
	var w *workload
	start := time.Now()
	if !o.epoch.IsZero() {
		start, o.epoch = o.epoch, time.Time{}
	}
	for i := 0; i < o.repeats(setUpRounds); i++ {
		var warm passResult
		var err error
		if ref, w, warm, err = setUp(o, name); err != nil {
			return nil, err
		}
		r.judge(ref, w, warm, o.seed, false)
		r.samples["setup_s"] = append(r.samples["setup_s"], time.Since(start).Seconds())
		start = time.Now()
	}

	perCell := make([][]float64, len(w.cells)) // virtual ns, per cell, per pass
	perCellMsgs := make([][]float64, len(w.cells))
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for r.passes < o.repeats(minPasses) || time.Now().Before(deadline) {
		p := runPass(w, o.seed, nil)
		r.judge(ref, w, p, o.seed, true)
		r.passes++
		var virt float64
		for i, c := range p.cells {
			if c.err == nil {
				perCell[i] = append(perCell[i], float64(c.virtNs))
				perCellMsgs[i] = append(perCellMsgs[i], float64(c.msgs))
				virt += float64(c.virtNs)
			}
		}
		r.samples["virtual_ms"] = append(r.samples["virtual_ms"], virt/1e6)
		r.samples["host_pass_ms"] = append(r.samples["host_pass_ms"], float64(p.wallNs)/1e6)
		r.samples["host_cpu_ms"] = append(r.samples["host_cpu_ms"], float64(p.cpuNs)/1e6)
		r.samples["host_alloc_mb"] = append(r.samples["host_alloc_mb"], float64(p.allocBytes)/1e6)
		r.samples["host_allocs_k"] = append(r.samples["host_allocs_k"], float64(p.mallocs)/1e3)
	}
	// A flagged-exact cell's typical pass is what two sets must share;
	// a rare pass that strays is already counted as drift.
	for i, c := range w.cells {
		if _, ok := ref.Exact[c.id]; ok && ref.applies(c, o.seed) {
			r.exact[c.id+" virtual_ns"], r.exact[c.id+" msgs"] = uint64(median(perCell[i])), uint64(median(perCellMsgs[i]))
		}
	}

	// The paper's quantity is a sum of per-cell medians: a median of
	// per-pass sums would let one cell that swings twofold between passes
	// pick the pass.
	stat := func(name string, use func(pass int) bool) float64 {
		pick := func(v []float64) []float64 {
			var out []float64
			for i, x := range v {
				if use(i) {
					out = append(out, x)
				}
			}
			return out
		}
		if name != "virtual_ms" {
			return median(pick(r.samples[name]))
		}
		var virtual float64
		for _, v := range perCell {
			virtual += median(pick(v))
		}
		return virtual / 1e6
	}
	r.metrics = newMetricSet(endToEnd)
	for _, d := range endToEnd {
		r.metrics.set(d.name, stat(d.name, func(int) bool { return true }))
		even := stat(d.name, func(i int) bool { return i%2 == 0 })
		odd := stat(d.name, func(i int) bool { return i%2 == 1 })
		r.resolution[d.name] = ratio(math.Abs(even-odd), min(even, odd))
	}
	r.describe(o.log)
	return r, nil
}

// minPasses keeps a median meaningful when one pass outlasts -seconds.
const minPasses = 3

// describe prints the timings with their sample count and range. With
// fewer than twenty passes no percentile has ten samples beyond it, so
// none is printed.
func (r *result) describe(log io.Writer) {
	fmt.Fprintf(log, "%s: %d timed passes, %d cells attempted, %d failed, %d flagged-exact cells drifted\n",
		r.workload, r.passes, r.attempted, r.failed, len(r.drifted))
	for _, d := range r.metrics.defs {
		if s := r.samples[d.name]; len(s) > 0 {
			lo, hi := minMax(s)
			fmt.Fprintf(log, "  %-34s %16.4f %-12s n=%d min %.4f max %.4f\n", d.name, r.metrics.values[d.name], d.unit, len(s), lo, hi)
		} else {
			fmt.Fprintf(log, "  %-34s %16.4f %s\n", d.name, r.metrics.values[d.name], d.unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(log, "  FAILED %s\n", f)
	}
	for _, id := range sortedKeys(r.drifted) {
		fmt.Fprintf(log, "  drifted %s\n", id)
	}
}

// goroutinePeak samples the goroutine count until stop is called.
func goroutinePeak() (stop func() int) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	peak := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, runtime.NumGoroutine())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() int { close(done); wg.Wait(); return peak }
}

// runTraced produces the per-layer metrics: a few untraced passes for the
// base line, one pass with the perfmon recorders on and spans around every
// call into the stack, then the ladder.
func runTraced(o *options, name string) (*result, error) {
	r := &result{workload: name, traced: true, drifted: map[string]bool{}, exact: map[string]uint64{}}
	ref, w, warm, err := setUp(o, name)
	if err != nil {
		return nil, err
	}
	r.judge(ref, w, warm, o.seed, false)
	budget := time.Duration(o.seconds * float64(time.Second))
	stopPeak := goroutinePeak()

	var untraced []passResult
	for deadline := time.Now().Add(budget * 2 / 5); len(untraced) < o.repeats(minPasses) || time.Now().Before(deadline); {
		p := runPass(w, o.seed, nil)
		r.judge(ref, w, p, o.seed, true)
		untraced = append(untraced, p)
	}
	r.passes = len(untraced)
	tr := newTracer()
	traced := runPass(w, o.seed, tr)
	r.judge(ref, w, traced, o.seed, true)
	peak := stopPeak()

	m := newMetricSet(perLayer)
	r.metrics = m
	accesses := layerCounts(w, traced.cells, m.set)

	// Virtual time across passes of the same code: zero spread and one
	// variant per cell is what a pure function of (config, seed) gives.
	var spread, variants float64
	passes := append(untraced[:len(untraced):len(untraced)], traced)
	for i := range w.cells {
		var v []float64
		distinct := map[uint64]bool{}
		for _, p := range passes {
			if p.cells[i].err == nil {
				v = append(v, float64(p.cells[i].virtNs))
				distinct[p.cells[i].virtNs] = true
			}
		}
		spread = max(spread, 100*ratio(quantile(v, 0.75)-quantile(v, 0.25), median(v)))
		variants += ratio(float64(len(distinct)), float64(len(v)))
	}
	m.set("vclock.virtual_spread_pct", spread)
	m.set("vclock.virtual_variants", variants/float64(len(w.cells)))

	self := tr.selfTimes()
	r.tracedWallNs = traced.wallNs
	for _, ns := range self {
		r.spanSelfNs += ns
	}
	for _, c := range traced.cells {
		if c.d != nil {
			r.clockNs += c.d.clockNs
			r.categoryNs += uint64(c.d.cats.Total())
		}
	}
	bootMs, runMs, closeMs := float64(self["boot"])/1e6, float64(self["run"])/1e6, float64(self["close"])/1e6
	m.set("core.boot_ms", bootMs)
	m.set("core.run_ms", runMs)
	m.set("core.close_ms", closeMs)
	m.set("core.boot_share", ratio(bootMs, float64(traced.wallNs)/1e6))
	m.set("apps.host_ns_per_access", ratio(runMs*1e6, accesses))

	var walls, cpus, gcs, pauses []float64
	for _, p := range untraced {
		walls = append(walls, float64(p.wallNs)/1e6)
		cpus = append(cpus, float64(p.cpuNs)/1e6)
		gcs = append(gcs, float64(p.gcCycles))
		pauses = append(pauses, float64(p.gcPauseNs)/1e6)
	}
	serveHost(w, untraced, m.set)
	m.set("perfmon.trace_overhead_pct", 100*(ratio(float64(traced.wallNs)/1e6, median(walls))-1))
	m.set("host.gc_cycles", median(gcs))
	m.set("host.gc_pause_ms", median(pauses))
	m.set("host.goroutines_peak", float64(peak))
	m.set("host.cpu_util", ratio(median(cpus), median(walls)))
	_, wallMax := minMax(walls)
	m.set("host.pass_ms_max", wallMax)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.set("host.peak_rss_mb", float64(ru.Maxrss)/1e3) // Linux reports kB
	} else {
		m.set("host.peak_rss_mb", 0)
	}
	// run.sh times the compile; without it the figure is unknown.
	build, _ := strconv.ParseFloat(os.Getenv("HAMSTER_BENCH_BUILD_S"), 64)
	m.set("host.build_s", build)

	measureLadder(budget*2/5, m.set)
	m.set("host.explained_share", ratio(explainedNs(w, traced.cells, func(n string) float64 { return m.values[n] }), runMs*1e6))

	for _, n := range exactCounts[name] {
		r.exact[n] = uint64(m.values[n])
	}
	if o.traceDir != "" {
		events := map[string]uint64{}
		for _, c := range traced.cells {
			if c.d != nil {
				for k, v := range c.d.events {
					events[k] += v
				}
			}
		}
		if err := tr.write(o.traceDir, name, events); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(o.log, "%s: traced pass after %d untraced, %d cells attempted, %d failed\n%s", name, r.passes, r.attempted, r.failed, m)
	for _, f := range r.failures {
		fmt.Fprintf(o.log, "  FAILED %s\n", f)
	}
	return r, nil
}

// exactCounts are the traced counts that repeat exactly on this code,
// per workload; -repeat holds two runs to them.
var exactCounts = map[string][]string{
	"serve-mix": {"serve.ops", "serve.sat_p99_us", "serve.sat_kops"},
}
