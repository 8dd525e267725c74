// Command hostbench measures what the simulator costs its users in host time:
// how long the host takes per simulated event, per op, to start up, and how
// much memory it holds, on three workloads that load different layers (see
// README.md). It times calls into the simulator's public functions from
// outside and reports every host time in reference units: the op's time
// divided by the time of a fixed reference kernel run just before and just
// after it, which takes most of the host's own drift out.
//
// Build and run it from the repository root with
//
//	bash hostbench/run.sh --workload stamp-8t --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness accounting and its metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/memo"
	"tsxhpc/internal/netapps"
	"tsxhpc/internal/runopts"
)

// procStart stands in for process start: setup_s of the first set-up counts
// from here.
var procStart = time.Now()

// An untraced run sets up from scratch at least minSetups times and until
// setupBudget of set-up time has passed, at most maxSetups times; setup_s is
// the median. Cheap set-ups repeat more, so their median holds still.
//
// setup_s is in reference-host seconds: the set-up's time in ref, scaled by
// refNominal, about the reference kernel's median time on the 2-vCPU host the
// benchmark was built on. Raw set-up seconds drift with the host as raw op
// times do (their IQR over ten seeds reached a third of the median on
// stamp-8t); the text report prints them beside it.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
	refNominal  = 4500 * time.Microsecond
)

// workload is one benchmark input set. Every op it yields is a pure
// function of the seed and the pass number.
type workload struct {
	why string
	// setup opens a fresh store and suite and runs what precedes the first
	// timed op: the discarded warm-up op and any cold fill.
	setup func(b *bench) error
	// pass lists the ops of pass k.
	pass func(b *bench, k int) []op
	// check runs once after the timed window: the designated repeat.
	check func(b *bench) error
	// counts, when set, replaces pass 0's simulated counts with exact ones
	// gathered untimed after the window (traced runs only).
	counts func(b *bench) error
}

var workloads = map[string]*workload{
	"stamp-8t":   stamp8t,
	"net-scale":  netScale,
	"warm-serve": warmServe,
}

// op is one timed unit: a cell on stamp-8t and net-scale, one full warm
// serve on warm-serve.
type op struct {
	name string
	// before, when set, runs ahead of the op in traced passes, outside its
	// timing.
	before func()
	run    func(parent int32) (outcome, error)
}

// guarded runs the op and reports a panic as its error. The runner already
// contains panics in job bodies; this catches those outside one, such as a
// warm serve's rendering.
func (o op) guarded(parent int32) (out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return o.run(parent)
}

// outcome is what an op did, as the runner counted it.
type outcome struct {
	events   uint64 // simulated events the op ran or served
	executed uint64 // runner jobs simulated
	hits     uint64 // runner jobs served from the memo store
}

// simCounts are exact simulated counts, summed over pass 0's cells.
type simCounts struct {
	events, cycles                                       uint64
	l1Hits, l1Misses, invalidations, remoteTransfers     uint64
	htmStarts, htmCommits, capacity, conflict, fallbacks uint64
	stmStarts, stmCommits                                uint64
}

func (c *simCounts) add(o simCounts) {
	c.events += o.events
	c.cycles += o.cycles
	c.l1Hits += o.l1Hits
	c.l1Misses += o.l1Misses
	c.invalidations += o.invalidations
	c.remoteTransfers += o.remoteTransfers
	c.htmStarts += o.htmStarts
	c.htmCommits += o.htmCommits
	c.capacity += o.capacity
	c.conflict += o.conflict
	c.fallbacks += o.fallbacks
	c.stmStarts += o.stmStarts
	c.stmCommits += o.stmCommits
}

// bench is one run's state.
type bench struct {
	seed int64
	dir  string // scratch directory for stores and the trace file

	opts    runopts.Options
	suite   *experiments.Suite
	mstore  *memo.Store
	cleanup func()
	stores  []string

	// tr is the run's tracer while a traced pass (or a traced set-up) runs,
	// nil otherwise.
	tr *tracer

	counts   simCounts
	digest   hash.Hash64
	firstRun any // the designated cell's pass-0 result

	pass0                 []netapps.ScaleResult
	golden                map[string]string
	coldEvents, coldCells uint64
}

func newBench(seed int64, dir string) *bench {
	return &bench{seed: seed, dir: dir, digest: fnv.New64a(), cleanup: func() {}}
}

// openSuite builds the runner and memo stack the way cmd/reproduce does,
// through runopts.Options.Setup: one runner worker, supervision as Setup
// installs it, and the memo store in a fresh directory.
func (b *bench) openSuite() error {
	b.cleanup()
	dir, err := os.MkdirTemp(b.dir, "store-")
	if err != nil {
		return err
	}
	b.stores = append(b.stores, dir)
	b.opts = runopts.Options{Parallel: 1, Cache: dir}
	b.suite, b.mstore, b.cleanup = b.opts.Setup(os.Stderr)
	if b.mstore == nil {
		return fmt.Errorf("runopts.Setup opened no store in %s", dir)
	}
	b.useStore()
	return nil
}

// useStore installs the memo store, wrapped in the span-recording store
// while tracing.
func (b *bench) useStore() {
	if b.tr != nil {
		b.suite.E.SetStore(&timedStore{inner: b.mstore, tr: b.tr})
	} else {
		b.suite.E.SetStore(b.mstore)
	}
}

func (b *bench) close() {
	b.cleanup()
	for _, d := range b.stores {
		os.RemoveAll(d)
	}
}

// cellSeed derives pass k's simulator seed from the workload seed
// (splitmix64), so each pass simulates different schedules.
func (b *bench) cellSeed(k int) int64 {
	z := uint64(b.seed)*0x9E3779B97F4A7C15 + uint64(k+2)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}

// record adds one pass-0 cell to the counts and the digest.
func (b *bench) record(c simCounts, words []uint64) {
	b.counts.add(c)
	for _, w := range words {
		binary.Write(b.digest, binary.LittleEndian, w)
	}
}

// opRecord is one timed op.
type opRecord struct {
	ns                  float64 // op host time
	refBefore, refAfter float64 // the reference-kernel runs around it
	events              uint64
	traced              bool
	failed              bool
}

// run is everything one benchmark run measured.
type run struct {
	setups []float64 // seconds
	ops    []opRecord
	refs   []float64 // every reference-kernel time in the window, ns
	wall   time.Duration
	cpu    time.Duration
	mem    [2]runtime.MemStats
	maxRSS float64 // MB
	errs   []error
	checks int // check ops attempted (the repeat, the probed counts)
	pass0  outcome
	layers map[string]*layerTimes
	saves  []float64 // every memo.Save span, set-up included, ns
	entryB float64
	counts simCounts
	digest uint64
	spans  *tracer
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// measure sets up, runs the timed window and the checks, and returns what
// it saw. An error means the run could not be measured at all.
func measure(o options, w *workload) (*run, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	b := newBench(o.seed, o.out)
	defer b.close()
	ref := newRefKernel()
	ref.run() // fault the table in before anything is timed
	r := &run{}
	if o.trace {
		r.spans = newTracer()
	}
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		b.tr = r.spans
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		r.setups = append(r.setups, d.Seconds())
		if o.trace {
			break // traced runs report no setup_s
		}
	}

	runtime.ReadMemStats(&r.mem[0])
	cpu0, wall0 := cpuTime(), time.Now()
	deadline := wall0.Add(time.Duration(o.seconds * float64(time.Second)))
	minPasses := 1
	if o.trace {
		minPasses = 2 // pass 1 is the first traced one
	}
	prev := float64(ref.run())
	r.refs = append(r.refs, prev)
	// The window holds whole passes only: a pass cut short would weigh the
	// cells that come first in it more than the others.
	for k := 0; k < minPasses || time.Now().Before(deadline); k++ {
		b.tr = nil
		if o.trace && k%2 == 1 {
			b.tr = r.spans
		}
		b.useStore()
		for _, op := range w.pass(b, k) {
			b.tr.setOp(len(r.ops))
			if op.before != nil && b.tr != nil {
				op.before()
			}
			root := b.tr.begin("op", op.name, 0)
			t0 := time.Now()
			out, err := op.guarded(root)
			ns := float64(time.Since(t0))
			b.tr.end(root)
			after := float64(ref.run())
			r.refs = append(r.refs, after)
			r.ops = append(r.ops, opRecord{ns: ns, refBefore: prev, refAfter: after, events: out.events,
				traced: b.tr != nil, failed: err != nil})
			prev = after
			if err != nil {
				r.errs = append(r.errs, fmt.Errorf("pass %d %s: %w", k, op.name, err))
			}
			if k == 0 {
				r.pass0.executed += out.executed
				r.pass0.hits += out.hits
			}
		}
	}
	r.wall, r.cpu = time.Since(wall0), cpuTime()-cpu0
	runtime.ReadMemStats(&r.mem[1])
	b.tr = nil
	r.entryB = entryBytesMean(b.mstore.Dir())

	r.checks++
	if err := w.check(b); err != nil {
		r.errs = append(r.errs, fmt.Errorf("check: %w", err))
	}
	if o.trace && w.counts != nil {
		r.checks++
		if err := w.counts(b); err != nil {
			r.errs = append(r.errs, fmt.Errorf("counts: %w", err))
		}
	}
	r.counts, r.digest = b.counts, b.digest.Sum64()
	r.maxRSS = maxRSSMB()
	if r.spans != nil {
		r.layers = r.spans.byName(func(s span) bool { return s.op >= 0 })
		if lt := r.spans.byName(func(s span) bool { return true })["memo.Save"]; lt != nil {
			r.saves = lt.dur
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := r.spans.writeChrome(path); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "hostbench: wrote %d spans to %s (Chrome trace-event JSON)\n", len(r.spans.spans), path)
	}
	return r, nil
}

// entryBytesMean is the mean size of the memo entries in a store directory.
func entryBytesMean(dir string) float64 {
	var n, total int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".memo") {
			if info, err := d.Info(); err == nil {
				n++
				total += info.Size()
			}
		}
		return nil
	})
	return ratio(float64(total), float64(n))
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (getrusage reports KiB on
// Linux).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object the run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timing is the op-time summary of a set of ops.
type timing struct {
	n              int
	events         uint64
	refPerMevent   float64 // ref units per million simulated events
	msPerMevent    float64 // the same in raw host milliseconds
	refP50, refP90 float64
	msP50, msP90   float64
	beyondP90      int
}

func summarize(ops []opRecord, keep func(opRecord) bool) timing {
	var t timing
	var refs, ms []float64
	var refSum, nsSum float64
	for _, o := range ops {
		if o.failed || !keep(o) {
			continue
		}
		x := refRatio(o.ns, o.refBefore, o.refAfter)
		refs = append(refs, x)
		ms = append(ms, o.ns/1e6)
		refSum += x
		nsSum += o.ns
		t.events += o.events
	}
	t.n = len(refs)
	t.refPerMevent = perMillion(refSum, t.events)
	t.msPerMevent = perMillion(nsSum/1e6, t.events)
	t.refP50, t.refP90 = percentile(refs, 50), percentile(refs, 90)
	t.msP50, t.msP90 = percentile(ms, 50), percentile(ms, 90)
	t.beyondP90 = beyond(refs, t.refP90)
	return t
}

// endToEnd is what an untraced run reports.
func endToEnd(r *run) map[string]metric {
	t := summarize(r.ops, func(opRecord) bool { return true })
	return map[string]metric{
		"ref_per_mevent": {t.refPerMevent, "ref"},
		"op_ref_p50":     {t.refP50, "ref"},
		"op_ref_p90":     {t.refP90, "ref"},
		"max_rss_mb":     {r.maxRSS, "MB"},
		"setup_s":        {setupSeconds(r), "s"},
	}
}

// setupSeconds is the median set-up in reference-host seconds. The set-ups
// are scaled by the kernel's median over the window that follows them, not
// by the kernel runs beside each one: two runs of a few milliseconds say
// little about the host's speed over a set-up of seconds.
func setupSeconds(r *run) float64 {
	return percentile(r.setups, 50) * ratio(float64(refNominal), percentile(r.refs, 50))
}

// guards are the host-noise and normalization checks every run prints.
func guards(r *run) map[string]metric {
	return map[string]metric{
		"runtime.cpu_per_wall": {ratio(float64(r.cpu), float64(r.wall)), "ratio"},
		"ref.ms_p50":           {percentile(r.refs, 50) / 1e6, "ms"},
		"ref.ms_iqr_pct":       {iqrPct(r.refs), "%"},
	}
}

// perLayer is what a traced run reports: span timings from the traced
// passes, exact counts from pass 0, runtime and noise guards over the
// window.
func perLayer(r *run) map[string]metric {
	traced := summarize(r.ops, func(o opRecord) bool { return o.traced })
	untraced := summarize(r.ops, func(o opRecord) bool { return !o.traced })
	var allEvents uint64
	for _, o := range r.ops {
		allEvents += o.events
	}
	l := func(name string) *layerTimes {
		if lt := r.layers[name]; lt != nil {
			return lt
		}
		return &layerTimes{}
	}
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	c := r.counts
	m := map[string]metric{
		"sim.new_us":                      {mean(l("sim.NewE").dur) / 1e3, "us"},
		"sim.run_ns_per_event":            {ratio(sum(l("sim.Run").self), float64(traced.events)), "ns/event"},
		"sim.events":                      {float64(c.events), "count"},
		"sim.cycles":                      {float64(c.cycles), "count"},
		"sim.l1_hit_ratio":                {ratio(float64(c.l1Hits), float64(c.l1Hits+c.l1Misses)), "ratio"},
		"sim.invalidations_per_kevent":    {ratio(float64(c.invalidations), float64(c.events)/1e3), "count/kevent"},
		"sim.remote_transfers_per_kevent": {ratio(float64(c.remoteTransfers), float64(c.events)/1e3), "count/kevent"},
		"htm.commits_per_start":           {ratio(float64(c.htmCommits), float64(c.htmStarts)), "ratio"},
		"htm.capacity_aborts":             {float64(c.capacity), "count"},
		"htm.conflict_aborts":             {float64(c.conflict), "count"},
		"htm.fallbacks":                   {float64(c.fallbacks), "count"},
		"stm.commits_per_start":           {ratio(float64(c.stmCommits), float64(c.stmStarts)), "ratio"},
		"stamp.setup_ms":                  {mean(l("stamp.Setup").dur) / 1e6, "ms"},
		"stamp.validate_ms":               {mean(l("stamp.Validate").dur) / 1e6, "ms"},
		"tm.new_system_us":                {mean(l("tm.NewSystem").dur) / 1e3, "us"},
		"netapps.run_scale_ns_per_event":  {ratio(sum(l("netapps.RunScale").dur), float64(traced.events)), "ns/event"},
		"runner.executed":                 {float64(r.pass0.executed), "count"},
		"runner.cache_hits":               {float64(r.pass0.hits), "count"},
		"memo.load_us_p50":                {percentile(l("memo.Load").dur, 50) / 1e3, "us"},
		"memo.load_us_p90":                {percentile(l("memo.Load").dur, 90) / 1e3, "us"},
		"memo.save_us_p50":                {percentile(r.saves, 50) / 1e3, "us"},
		"memo.entry_bytes_mean":           {r.entryB, "B"},
		"experiments.section_us_p50":      {percentile(l("experiments.section").dur, 50) / 1e3, "us"},
		"runtime.alloc_bytes_per_event":   {ratio(float64(r.mem[1].TotalAlloc-r.mem[0].TotalAlloc), float64(allEvents)), "B/event"},
		"runtime.gc_cycles":               {float64(r.mem[1].NumGC - r.mem[0].NumGC), "count"},
		"runtime.gc_pause_ms":             {float64(r.mem[1].PauseTotalNs-r.mem[0].PauseTotalNs) / 1e6, "ms"},
		"trace.overhead_pct":              {100 * (ratio(traced.refPerMevent, untraced.refPerMevent) - 1), "%"},
	}
	// Runner overhead per cell: on the simulating workloads, the runner.Do
	// span minus its job body and store spans; on warm-serve, where the
	// experiments package calls the runner itself, the section spans minus
	// their store spans, per cell served.
	if do := l("runner.Do"); len(do.self) > 0 {
		m["runner.overhead_us_per_cell"] = metric{mean(do.self) / 1e3, "us"}
	} else {
		served := float64(len(l("memo.Load").dur))
		m["runner.overhead_us_per_cell"] = metric{ratio(sum(l("experiments.section").self), served) / 1e3, "us"}
	}
	for k, v := range guards(r) {
		m[k] = v
	}
	return m
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: stamp-8t, net-scale or warm-serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.out, "out", ".bench_build/hostbench", "scratch directory for memo stores and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "hostbench: need --workload (one of %s) and --trace 0 or 1\n", names())
		return 2
	}
	o.trace = traceFlag == 1
	r, err := measure(o, w)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep := report{Attempted: len(r.ops) + r.checks, Failed: len(r.errs)}
	rep.Correct = rep.Failed == 0
	for _, err := range r.errs {
		fmt.Fprintf(stderr, "hostbench: FAILED %v\n", err)
	}
	printText(stdout, o, w, r)
	if o.trace {
		rep.Metrics = perLayer(r)
	} else {
		rep.Metrics = endToEnd(r)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func names() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ", ")
}

// printText writes the human-readable report: raw host time beside every
// ref figure, the noise guards and the simulated-statistics digest.
func printText(w io.Writer, o options, wl *workload, r *run) {
	t := summarize(r.ops, func(op opRecord) bool { return !op.traced })
	fmt.Fprintf(w, "hostbench %s seed=%d seconds=%g trace=%v: %s\n", o.workload, o.seed, o.seconds, o.trace, wl.why)
	fmt.Fprintf(w, "ops: %d timed (%d untraced), %d failed; %d lie beyond op_ref_p90\n", len(r.ops), t.n, len(r.errs), t.beyondP90)
	fmt.Fprintf(w, "ref_per_mevent %.4f ref   raw %.3f ms/Mevent over %d events\n", t.refPerMevent, t.msPerMevent, t.events)
	fmt.Fprintf(w, "op_ref_p50     %.4f ref   raw %.3f ms\n", t.refP50, t.msP50)
	fmt.Fprintf(w, "op_ref_p90     %.4f ref   raw %.3f ms\n", t.refP90, t.msP90)
	fmt.Fprintf(w, "setup_s        %.4f s at %v a ref   raw %.4f s (median of %d: %s)\n",
		setupSeconds(r), refNominal, percentile(r.setups, 50), len(r.setups), fmtList(r.setups))
	fmt.Fprintf(w, "max_rss_mb     %.2f MB\n", r.maxRSS)
	g := guards(r)
	fmt.Fprintf(w, "guards: ref.ms_p50=%.4f ref.ms_iqr_pct=%.2f runtime.cpu_per_wall=%.3f\n",
		g["ref.ms_p50"].Value, g["ref.ms_iqr_pct"].Value, g["runtime.cpu_per_wall"].Value)
	fmt.Fprintf(w, "runner pass 0: %d executed, %d cache hits\n", r.pass0.executed, r.pass0.hits)
	fmt.Fprintf(w, "sim_digest %s %016x (pass 0: %d events, %d cycles)\n", o.workload, r.digest, r.counts.events, r.counts.cycles)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
