// Command reproduce regenerates every table and figure of the paper's
// evaluation in one run, plus the ablation studies, printing each as a text
// table (see EXPERIMENTS.md for the paper-vs-measured comparison).
//
// Simulation cells fan out across -parallel host workers and are memoized,
// so cells shared between experiments run once; rendered output is
// byte-identical at any parallelism level (only the host-time footer
// varies). -only selects a subset of experiments by id. -bench <path>
// writes a JSON report of the run's host facts: per-section wall time and
// simulated events, job and cache counts. Host speed itself is measured by
// hostbench against the committed BENCH_hostbench.jsonl baseline
// (scripts/bench_ratchet.sh), not by this report.
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
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/harness"
	"tsxhpc/internal/memo"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/runopts"
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
	{"E1", "E1", rendered((*experiments.Suite).Figure1)},
	{"E2", "E2", rendered((*experiments.Suite).Figure2)},
	{"E3", "E3", rendered((*experiments.Suite).Table1)},
	{"E4", "E4", rendered((*experiments.Suite).Figure3)},
	{"E5", "E5", func(s *experiments.Suite) (string, error) {
		t, gain, err := s.Figure4()
		if err != nil {
			return "", err
		}
		return t.Render() + fmt.Sprintf("tsx.coarsen over baseline @8T (geomean): %.2fx (paper: 1.41x mean)\n", gain), nil
	}},
	{"E6", "E6", rendered((*experiments.Suite).Figure5a)},
	{"E7", "E7", rendered((*experiments.Suite).Figure5b)},
	{"E8", "E8", func(s *experiments.Suite) (string, error) {
		t, gain, err := s.Figure6()
		if err != nil {
			return "", err
		}
		return t.Render() + fmt.Sprintf("tsx.busywait average gain over mutex: %.2fx (paper: 1.31x)\n", gain), nil
	}},
	{"E9", "E9", rendered(func(s *experiments.Suite) (*harness.Figure, error) { return s.RetrySweep(experiments.RetryBudgets) })},
	{"ablation: HT capacity", "A1", rendered((*experiments.Suite).HTCapacityAblation)},
	{"ablation: conflict wiring", "A2", rendered((*experiments.Suite).ConflictWiringAblation)},
	{"ablation: lockset elision", "A3", rendered((*experiments.Suite).LocksetAblation)},
	{"ablation: adaptive coarsening", "A4", rendered((*experiments.Suite).AdaptiveCoarseningAblation)},
	{"abort anatomy", "A5", (*experiments.Suite).AbortAnatomy},
	{"model anatomy", "A7", rendered((*experiments.Suite).ModelAnatomy)},
	{"scaling curves", "A6", func(s *experiments.Suite) (string, error) {
		coresT, clientsT, err := s.ScalingCurve()
		if err != nil {
			return "", err
		}
		return coresT.Render() + clientsT.Render(), nil
	}},
}

// rendered adapts a section that returns one table or figure.
func rendered[T interface{ Render() string }](section func(*experiments.Suite) (T, error)) func(*experiments.Suite) (string, error) {
	return func(s *experiments.Suite) (string, error) {
		r, err := section(s)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// benchRow is one experiment's host-performance record.
type benchRow struct {
	ID        string  `json:"id"`
	Seconds   float64 `json:"seconds"`
	SimEvents uint64  `json:"sim_events"`
}

// benchReport is the -bench report: what this run did, with nothing carried
// over from earlier runs. A cache-served section simulates nothing, so its
// row records zero events.
type benchReport struct {
	Parallel       int        `json:"parallel"`
	TotalSeconds   float64    `json:"total_seconds"`
	TotalSimEvents uint64     `json:"total_sim_events"`
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
// runopts.Options, which cmd/verify registers identically.
type options struct {
	runopts.Options
	only       string
	benchPath  string
	cpuProfile string
	timeout    time.Duration

	// wrapStore, when set, wraps the store Setup opens before any cell is
	// submitted; tests record a run's store traffic through it.
	wrapStore func(runner.Store) runner.Store
}

// register binds every reproduce flag to o.
func register(fs *flag.FlagSet, o *options) {
	runopts.Register(fs, &o.Options)
	fs.StringVar(&o.only, "only", "", "comma-separated experiment ids to run (E1..E9, A1..A7); empty runs all")
	fs.StringVar(&o.benchPath, "bench", "", "write a JSON report of this run's host facts (section times, events, cache counts) to this path")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (also the PGO input; see cmd/reproduce/default.pgo)")
	fs.DurationVar(&o.timeout, "timeout", 0, "host wall-clock budget per experiment (0: unlimited)")
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
	register(flag.CommandLine, &o)
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
	if store != nil && o.wrapStore != nil {
		suite.E.SetStore(o.wrapStore(store))
	}
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

	// A bad output path fails here, before any simulation, not after the
	// sweep. Opening without truncation keeps an existing file intact until
	// the run overwrites it.
	for _, path := range []string{o.benchPath, o.MetricsPath("reproduce"), o.TracePath} {
		if path == "" {
			continue
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
		f.Close()
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

	if o.benchPath != "" {
		if err := writeBench(o.benchPath, suite, store, total, rows, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
	}
	if err := o.WriteObservability("reproduce", stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
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

// writeBench writes the -bench report of this run.
func writeBench(path string, suite *experiments.Suite, store *memo.Store, total time.Duration, rows []benchRow, stderr io.Writer) error {
	st := suite.E.Stats()
	rep := benchReport{
		Parallel:       st.Workers,
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
	if store != nil {
		rep.Cache = store.Dir()
		rep.Fingerprint = store.Fingerprint()
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	// Report on stderr so stdout stays byte-comparable across runs.
	fmt.Fprintf(stderr, "wrote %s (%d jobs, %d deduped, %d cache hits)\n",
		path, rep.JobsExecuted, rep.JobsDeduped, rep.CacheHits)
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
