// Command reproduce regenerates every table and figure of the paper's
// evaluation in one run, plus the ablation studies, printing each as a text
// table (see EXPERIMENTS.md for the paper-vs-measured comparison).
//
// Simulation cells fan out across -parallel host workers and are memoized,
// so cells shared between experiments run once; rendered output is
// byte-identical at any parallelism level (only the host-time footer
// varies). -only selects a subset of experiments by id. A host-performance
// report (per-experiment wall time, simulated events, events/sec, cold/warm
// cache timings) is written to BENCH_reproduce.json for full-catalog runs
// (-benchforce extends that to -only subsets).
//
// Results additionally persist across processes in a content-addressed
// on-disk cache (-cache <dir>, default .memo-cache; -cache off disables):
// each cell's result is a pure function of its key and the model
// fingerprint (cost profile, machine config, fault plan, simulator code),
// so a warm rerun of the full catalog decodes every cell from disk in
// milliseconds with byte-identical stdout, and any model or code edit
// re-simulates automatically. See internal/memo and DESIGN.md §10.
//
// Robustness controls:
//
//   - -chaos <seed> enables deterministic fault injection (faults.Chaos) on
//     every simulated machine: spurious transaction aborts, cache-eviction
//     storms, lock-hold stretching, clock jitter. Same seed, same output.
//   - -maxcycles / -stallcycles bound each simulated run's total virtual
//     cycles and progress-free window; exceeding either surfaces as a typed
//     per-experiment failure, not a hang.
//   - -timeout bounds each experiment's host wall-clock time.
//
// A failing experiment (stall, budget, timeout, panic) is reported in place
// with its cause and the run continues; any failure makes the exit status
// non-zero and is listed in a final summary.
//
// Supervision and recovery (DESIGN.md §13):
//
//   - Every simulation cell runs under the runner's containment: a failed
//     cell (error, panic, or one poisoned with -poison for testing) is
//     quarantined so the rest of the sweep completes, and the quarantined
//     cells are listed in a summary. Exit codes distinguish the outcomes:
//     0 clean, 1 total failure (every section failed, or more than
//     -quarantine cells quarantined), 3 degraded (some sections failed,
//     the rest reproduced), 2 usage, 130 interrupted.
//   - Resume is a rerun against the same cache. The memo store saves each
//     cell atomically as it finishes, so SIGINT/SIGTERM finishes the current
//     section, prints a hint, and exits 130 (a second signal aborts
//     immediately); a plain rerun serves every finished cell from -cache
//     and simulates only the rest, with byte-identical stdout. With
//     -cache off a rerun starts over.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/memo"
	"tsxhpc/internal/runopts"
	"tsxhpc/internal/sim"
)

// Exit codes. exitTotalFailure means the run produced nothing usable (every
// section failed, or quarantine exceeded its cap); exitDegraded means the
// sweep completed minus contained failures.
const (
	exitOK           = 0
	exitTotalFailure = 1
	exitUsage        = 2
	exitDegraded     = 3
	exitInterrupted  = 130
)

// interrupted is set by the signal handler; the section loop checks it
// between sections (a simulated region has no preemption point).
var interrupted atomic.Bool

// experiment is one reproduce section: id is the printed section header
// (unchanged from the serial tool), alias the short -only selector, and run
// returns the section body (table plus any headline-metric lines).
type experiment struct {
	id    string
	alias string
	run   func(*experiments.Suite) (string, error)
}

var catalog = []experiment{
	{"E1", "E1", func(s *experiments.Suite) (string, error) {
		f, err := s.Figure1()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}},
	{"E2", "E2", func(s *experiments.Suite) (string, error) {
		t, err := s.Figure2()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"E3", "E3", func(s *experiments.Suite) (string, error) {
		t, err := s.Table1()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"E4", "E4", func(s *experiments.Suite) (string, error) {
		t, err := s.Figure3()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"E5", "E5", func(s *experiments.Suite) (string, error) {
		t, gain, err := s.Figure4()
		if err != nil {
			return "", err
		}
		return t.Render() + fmt.Sprintf("tsx.coarsen over baseline @8T (geomean): %.2fx (paper: 1.41x mean)\n", gain), nil
	}},
	{"E6", "E6", func(s *experiments.Suite) (string, error) {
		f, err := s.Figure5a()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}},
	{"E7", "E7", func(s *experiments.Suite) (string, error) {
		f, err := s.Figure5b()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}},
	{"E8", "E8", func(s *experiments.Suite) (string, error) {
		t, gain, err := s.Figure6()
		if err != nil {
			return "", err
		}
		return t.Render() + fmt.Sprintf("tsx.busywait average gain over mutex: %.2fx (paper: 1.31x)\n", gain), nil
	}},
	{"E9", "E9", func(s *experiments.Suite) (string, error) {
		f, err := s.RetrySweep([]int{1, 2, 3, 4, 5, 6, 8, 10})
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}},
	{"ablation: HT capacity", "A1", func(s *experiments.Suite) (string, error) {
		t, err := s.HTCapacityAblation()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"ablation: conflict wiring", "A2", func(s *experiments.Suite) (string, error) {
		f, err := s.ConflictWiringAblation()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}},
	{"ablation: lockset elision", "A3", func(s *experiments.Suite) (string, error) {
		t, err := s.LocksetAblation()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"ablation: adaptive coarsening", "A4", func(s *experiments.Suite) (string, error) {
		t, err := s.AdaptiveCoarseningAblation()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"abort anatomy", "A5", func(s *experiments.Suite) (string, error) {
		return s.AbortAnatomy()
	}},
	{"model anatomy", "A7", func(s *experiments.Suite) (string, error) {
		t, err := s.ModelAnatomy()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"scaling curves", "A6", func(s *experiments.Suite) (string, error) {
		coresT, clientsT, err := s.ScalingCurve()
		if err != nil {
			return "", err
		}
		return coresT.Render() + clientsT.Render(), nil
	}},
}

// benchRow is one experiment's host-performance record.
type benchRow struct {
	ID        string  `json:"id"`
	Seconds   float64 `json:"seconds"`
	SimEvents uint64  `json:"sim_events"`
}

// benchReport is the BENCH_reproduce.json schema, the cross-PR perf record.
// ColdSeconds/WarmSeconds track the cache-perf trajectory: a run that
// simulated cells records its wall time as cold_seconds; a fully
// cache-served run records warm_seconds and carries the cold time forward,
// provided the model fingerprint still matches (a code or model edit resets
// the pair).
type benchReport struct {
	Parallel       int        `json:"parallel"`
	GoVersion      string     `json:"go_version"`
	Scheduler      string     `json:"scheduler"`
	TotalSeconds   float64    `json:"total_seconds"`
	ColdSeconds    float64    `json:"cold_seconds"`
	WarmSeconds    float64    `json:"warm_seconds"`
	TotalSimEvents uint64     `json:"total_sim_events"`
	EventsPerSec   float64    `json:"events_per_second"`
	JobsExecuted   uint64     `json:"jobs_executed"`
	JobsDeduped    uint64     `json:"jobs_deduped"`
	Cache          string     `json:"cache"`
	Fingerprint    string     `json:"fingerprint,omitempty"`
	CacheHits      uint64     `json:"cache_hits"`
	CacheMisses    uint64     `json:"cache_misses"`
	CacheInvalid   uint64     `json:"cache_invalid"`
	Quarantined    uint64     `json:"quarantined"`
	Experiments    []benchRow `json:"experiments"`
}

// options are the parsed command-line settings; run takes them explicitly so
// tests can drive the whole tool in-process. The shared runner knobs
// (-parallel, -cache, -chaos, -maxcycles, -stallcycles) live in
// runopts.Options, which every cmd binary registers identically.
type options struct {
	runopts.Options
	only       string
	benchPath  string
	benchForce bool
	cpuProfile string
	timeout    time.Duration
}

func main() {
	// Batch-tool GC posture: the simulator's steady-state allocation rate is
	// low but nonzero (carrier coroutines, workload scratch), and the default
	// GOGC=100 target triggers >100 collections over a full catalog run for
	// no memory benefit worth having in a short-lived process. A 4x heap
	// target measurably reduces cold-run wall time; an explicit GOGC
	// environment setting still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	var o options
	runopts.Register(flag.CommandLine, &o.Options)
	flag.StringVar(&o.only, "only", "", "comma-separated experiment ids to run (E1..E9, A1..A7); empty runs all")
	flag.StringVar(&o.benchPath, "bench", "BENCH_reproduce.json", "path for the host-performance JSON report (empty disables; written only for full-catalog runs unless -benchforce)")
	flag.BoolVar(&o.benchForce, "benchforce", false, "write the bench report even for partial (-only) runs")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (also the PGO input; see cmd/reproduce/default.pgo)")
	flag.DurationVar(&o.timeout, "timeout", 0, "host wall-clock budget per experiment (0: unlimited)")
	flag.Parse()
	o.Finish(flag.CommandLine)

	// Graceful interrupt: the first SIGINT/SIGTERM lets the current section
	// finish (simulated regions cannot be preempted); a second aborts
	// immediately — the memo store saves each cell as it finishes, so even
	// the abort loses only the cells in flight.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "reproduce: interrupted — finishing the current section (interrupt again to abort now)")
		<-sigc
		os.Exit(exitInterrupted)
	}()
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// run executes the selected experiments and returns the process exit code
// (see the exit constants: 0 clean, 1 total failure, 2 usage, 3 degraded,
// 130 interrupted).
func run(o options, stdout, stderr io.Writer) int {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Robustness defaults reach every machine the experiments construct via
	// sim.DefaultConfig (restored on exit so in-process callers do not leak
	// fault injection into each other), then the persistent result store is
	// opened under the resulting model fingerprint.
	suite, store, cleanup := o.Setup(stderr)
	defer cleanup()
	o.Banner(stdout)

	selected := parseOnly(o.only)
	if selected != nil {
		valid := make(map[string]bool, 2*len(catalog))
		ids := make([]string, 0, len(catalog))
		for _, ex := range catalog {
			valid[strings.ToUpper(ex.id)] = true
			valid[strings.ToUpper(ex.alias)] = true
			ids = append(ids, ex.alias)
		}
		for tok := range selected {
			if !valid[tok] {
				fmt.Fprintf(stderr, "-only: unknown experiment %q (valid: %s)\n", tok, strings.Join(ids, ", "))
				return 2
			}
		}
	}

	start := time.Now()
	var rows []benchRow
	type failure struct {
		id  string
		err error
	}
	var failures []failure
	completed, skipped := 0, 0
	for _, ex := range catalog {
		if selected != nil && !selected[strings.ToUpper(ex.alias)] && !selected[strings.ToUpper(ex.id)] {
			continue
		}
		if interrupted.Load() {
			skipped++
			continue
		}
		t0 := time.Now()
		ev0 := suite.E.Stats().Events
		body, err := runExperiment(ex, suite, o.timeout)
		if err != nil {
			// Containment: report the failed section in place — cause, seed
			// context, thread states if the error carries them — and keep
			// reproducing the rest.
			fmt.Fprintf(stdout, "\n--- %s ---\nFAILED: %v\n", ex.id, err)
			failures = append(failures, failure{ex.id, err})
			continue
		}
		fmt.Fprintf(stdout, "\n--- %s ---\n%s", ex.id, body)
		completed++
		rows = append(rows, benchRow{
			ID:        ex.id,
			Seconds:   time.Since(t0).Seconds(),
			SimEvents: suite.E.Stats().Events - ev0,
		})
	}
	total := time.Since(start)

	// A store that cannot save (full disk, removed directory) silently turns
	// every rerun cold, and the store is the only resume point: say so.
	if store != nil {
		if n := store.Stats().SaveErrors; n > 0 {
			fmt.Fprintf(stderr, "reproduce: %d cache entries could not be saved to %s; a rerun will simulate them again\n", n, store.Dir())
		}
	}

	if interrupted.Load() && skipped > 0 {
		if store != nil {
			fmt.Fprintf(stderr, "reproduce: interrupted with %d section(s) done and %d to go; a plain rerun serves finished cells from %s\n",
				completed, skipped, store.Dir())
		} else {
			fmt.Fprintf(stderr, "reproduce: interrupted with %d section(s) to go (cache off; a rerun starts over)\n", skipped)
		}
		return exitInterrupted
	}

	switch {
	case o.benchPath == "":
	case selected != nil && !o.benchForce:
		// A -only subset would clobber the full-catalog record with a
		// partial one (the committed file was once reduced to just E1 that
		// way). Skip unless explicitly forced.
		fmt.Fprintf(stderr, "skipping %s: partial (-only) run; pass -benchforce to write it anyway\n", o.benchPath)
	default:
		if err := writeBench(o.benchPath, suite, store, total, rows, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
	}

	// The observability sidecars get the same partial-run guard as the bench
	// report: a -only subset only simulated (and thus only counted) a slice
	// of the catalog, and writing it out would clobber a full run's metrics
	// or trace with a partial one.
	switch {
	case !o.ProbesArmed():
	case selected != nil && !o.benchForce:
		fmt.Fprintf(stderr, "skipping observability sidecars: partial (-only) run; pass -benchforce to write them anyway\n")
	default:
		if err := o.WriteObservability("reproduce", stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
	}

	// The cache summary rides on the host-time footer: every byte above it
	// stays identical between cold and warm runs (and to the committed
	// reproduce_output.txt), while the footer itself is the designated
	// run-variant line that output comparisons already strip.
	st := suite.E.Stats()
	footer := "host time"
	if store != nil {
		footer = fmt.Sprintf("host time; cache: %d hits, %d misses, %d invalid", st.CacheHits, st.CacheMisses, st.CacheInvalid)
	}
	if len(failures) > 0 {
		if quarantined := suite.E.Quarantined(); len(quarantined) > 0 {
			fmt.Fprintf(stdout, "\nquarantined cells (%d):\n", len(quarantined))
			for _, k := range quarantined {
				fmt.Fprintf(stdout, "  %s\n", k)
			}
		}
		fmt.Fprintf(stdout, "\nfailures:\n")
		for _, f := range failures {
			fmt.Fprintf(stdout, "  %s: %v\n", f.id, f.err)
		}
		fmt.Fprintf(stdout, "\nreproduced with %d failed experiment(s) in %.1fs (%s)\n", len(failures), total.Seconds(), footer)
		if completed == 0 || int(st.Quarantined) > o.Quarantine {
			return exitTotalFailure
		}
		return exitDegraded
	}
	fmt.Fprintf(stdout, "\nreproduced all experiments in %.1fs (%s)\n", total.Seconds(), footer)
	return exitOK
}

// writeBench writes the host-performance report, merging the cold/warm
// timing pair with any existing record for the same model fingerprint: a
// run that simulated cells sets cold_seconds (resetting a now-unpaired warm
// time), a fully cache-served run sets warm_seconds and keeps the matching
// cold time.
func writeBench(path string, suite *experiments.Suite, store *memo.Store, total time.Duration, rows []benchRow, stderr io.Writer) error {
	st := suite.E.Stats()
	rep := benchReport{
		Parallel:       st.Workers,
		GoVersion:      runtime.Version(),
		Scheduler:      sim.SchedulerBackend(),
		TotalSeconds:   total.Seconds(),
		TotalSimEvents: st.Events,
		JobsExecuted:   st.Executed,
		JobsDeduped:    st.Deduped,
		Cache:          runopts.CacheOff,
		CacheHits:      st.CacheHits,
		CacheMisses:    st.CacheMisses,
		CacheInvalid:   st.CacheInvalid,
		Quarantined:    st.Quarantined,
		Experiments:    rows,
	}
	if s := total.Seconds(); s > 0 {
		rep.EventsPerSec = float64(st.Events) / s
	}
	if store != nil {
		rep.Cache = store.Dir()
		rep.Fingerprint = store.Fingerprint()
	}
	var prev benchReport
	if old, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(old, &prev)
	}
	carry := store != nil && prev.Fingerprint == rep.Fingerprint
	if carry {
		// A cache-served section simulates nothing, so its row records zero
		// events even though the cold run that produced the cached cells
		// counted them. The model fingerprint still matches, so the previous
		// report's per-experiment counts remain true — carry each one forward
		// rather than erasing it.
		prevEvents := make(map[string]uint64, len(prev.Experiments))
		for _, row := range prev.Experiments {
			prevEvents[row.ID] = row.SimEvents
		}
		for i := range rep.Experiments {
			if rep.Experiments[i].SimEvents == 0 {
				rep.Experiments[i].SimEvents = prevEvents[rep.Experiments[i].ID]
			}
		}
	}
	if warm := store != nil && st.CacheHits > 0 && st.Executed == 0; warm {
		rep.WarmSeconds = total.Seconds()
		if carry {
			rep.ColdSeconds = prev.ColdSeconds
			// A fully cache-served run simulates nothing, so its own event
			// stats are zero; carry the cold run's throughput record forward
			// instead of clobbering it. events_per_second must always
			// describe real simulation work (the ratchet script depends on
			// it).
			if st.Events == 0 {
				rep.TotalSimEvents = prev.TotalSimEvents
				rep.EventsPerSec = prev.EventsPerSec
			}
		}
	} else {
		rep.ColdSeconds = total.Seconds()
		if carry && st.CacheHits > 0 {
			// Incremental run (some hits, some simulated): keep the warm
			// record — the model didn't change.
			rep.WarmSeconds = prev.WarmSeconds
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	// Report on stderr so stdout stays byte-comparable across runs.
	fmt.Fprintf(stderr, "wrote %s (%d jobs, %d deduped, %d cache hits, %.0f events/s)\n",
		path, rep.JobsExecuted, rep.JobsDeduped, rep.CacheHits, rep.EventsPerSec)
	return nil
}

// runExperiment executes one section with panic containment and an optional
// host wall-clock budget. On timeout the experiment's goroutine is abandoned
// (simulated machines have no preemption point to cancel at); it finishes in
// the background while the remaining sections proceed, which can delay
// process exit but never corrupts other sections' results — machines are
// private per job and output is rendered from this call's return value only.
func runExperiment(ex experiment, s *experiments.Suite, timeout time.Duration) (string, error) {
	type outcome struct {
		body string
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				if err, ok := p.(error); ok {
					res <- outcome{err: fmt.Errorf("experiment panicked: %w", err)}
				} else {
					res <- outcome{err: fmt.Errorf("experiment panicked: %v", p)}
				}
			}
		}()
		body, err := ex.run(s)
		res <- outcome{body, err}
	}()
	if timeout <= 0 {
		o := <-res
		return o.body, o.err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case o := <-res:
		return o.body, o.err
	case <-t.C:
		return "", fmt.Errorf("host wall-clock budget exceeded (%v)", timeout)
	}
}

// parseOnly turns "E1, e3,A2" into a selector set; empty input selects all.
func parseOnly(s string) map[string]bool {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	sel := make(map[string]bool)
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.ToUpper(strings.TrimSpace(tok)); tok != "" {
			sel[tok] = true
		}
	}
	return sel
}
