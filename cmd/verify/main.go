// Command verify is the differential correctness harness CLI: it sweeps
// seeded randomized transactional workloads (internal/check) and requires
// the synchronization engines — tsx, tl2, coarse, fine — to agree: every
// committed history must be serializable in its recorded commit order,
// commutative workloads must land on the analytically predicted final state
// in every engine, and the machine model's own invariants stay armed
// throughout. With -chaos the same agreement is enforced under deterministic
// fault injection. Output is deterministic per (seeds, engines, chaos seed):
// same flags, same bytes.
//
// Seeds run as jobs on the shared runner engine: a seed whose harness
// crashes (or is poisoned with -poison) is contained and quarantined, and
// the sweep completes around it — an errored seed is reported in place and
// the rest still cross-check. SIGINT/SIGTERM stops the sweep within one
// submission window and exits 130; a rerun starts over (a 500-seed sweep
// takes about a second).
//
// Exit status: 0 all seeds agree; 1 violations found or no seed completed
// (or quarantine exceeded -quarantine); 2 usage error; 3 some seeds errored
// but the rest completed and agreed; 130 interrupted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"tsxhpc/internal/check"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/runopts"
	"tsxhpc/internal/sim"
)

const (
	exitOK           = 0
	exitTotalFailure = 1
	exitUsage        = 2
	exitDegraded     = 3
	exitInterrupted  = 130
)

// interrupted is set by the signal handler; the collection loop stops
// submitting new seeds once it is raised.
var interrupted atomic.Bool

type options struct {
	runopts.Options
	seeds    int
	engines  string
	topology string
	verbose  bool
}

// parseTopology decodes -topology's SxCxT form ("2x8x2") into a validated
// machine shape. Empty means the paper machine; any structurally invalid
// shape is rejected here with the simulator's own typed diagnostics, so a
// bad flag is a usage error up front rather than an ERROR on every seed.
func parseTopology(s string) (sockets, cores, tpc int, err error) {
	if s == "" {
		return 1, 4, 2, nil
	}
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("topology %q: want SOCKETSxCORESxTHREADS, e.g. 2x8x2", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		if dims[i], err = strconv.Atoi(p); err != nil {
			return 0, 0, 0, fmt.Errorf("topology %q: %q is not a number", s, p)
		}
	}
	cfg := sim.Config{Sockets: dims[0], Cores: dims[1], ThreadsPerCore: dims[2], Costs: sim.DefaultCosts()}
	if err := cfg.Validate(); err != nil {
		return 0, 0, 0, err
	}
	return dims[0], dims[1], dims[2], nil
}

// seedOutcome is one seed's complete result: the rendered per-seed lines
// (empty unless the seed failed or -v is on) plus the aggregate counters the
// summary needs.
type seedOutcome struct {
	Lines     string
	Bad       bool
	Txns      uint64
	Starts    uint64
	Aborts    uint64
	Fallbacks uint64
	TL2Aborts uint64
	Counts    map[string]int
}

func main() {
	var o options
	runopts.Register(flag.CommandLine, &o.Options)
	flag.IntVar(&o.seeds, "seeds", 100, "number of randomized workload seeds to cross-check")
	flag.StringVar(&o.engines, "engines", "tsx,tl2,coarse,fine", "comma-separated engines that must agree")
	flag.StringVar(&o.topology, "topology", "", "machine topology as SOCKETSxCORESxTHREADS (e.g. 2x8x2; default: the paper machine, 1x4x2)")
	flag.BoolVar(&o.verbose, "v", false, "print every seed's line, not just violations")
	flag.Parse()
	o.Finish(flag.CommandLine)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "verify: interrupted — draining in-flight seeds (interrupt again to abort now)")
		<-sigc
		os.Exit(exitInterrupted)
	}()
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// renderOutcome turns one seed's differential report into its outcome record
// (rendered lines plus summary counters).
func renderOutcome(seedIdx int, rep *check.Report, verbose bool) seedOutcome {
	w := rep.Workload
	out := seedOutcome{Txns: uint64(w.TotalTxns())}
	for _, res := range rep.Results {
		if res == nil {
			continue
		}
		switch res.Engine {
		case check.TSX:
			out.Starts += res.Starts
			out.Aborts += res.Aborts
			out.Fallbacks += res.Fallbacks
		case check.TL2:
			out.TL2Aborts += res.Aborts
		}
	}
	var b strings.Builder
	if rep.Ok() {
		if verbose {
			fmt.Fprintf(&b, "seed %4d ok    threads=%d slots=%d txns=%d commutative=%v\n",
				seedIdx+1, w.Threads, w.Slots, w.TotalTxns(), w.Commutative())
		}
	} else {
		out.Bad = true
		out.Counts = map[string]int{}
		fmt.Fprintf(&b, "seed %4d FAIL  threads=%d slots=%d txns=%d commutative=%v\n",
			seedIdx+1, w.Threads, w.Slots, w.TotalTxns(), w.Commutative())
		for _, v := range rep.Violations {
			out.Counts[string(v.Kind)]++
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	out.Lines = b.String()
	return out
}

func run(o options, stdout, stderr io.Writer) int {
	engines, err := check.ParseEngines(o.engines)
	if err != nil {
		fmt.Fprintf(stderr, "verify: %v\n", err)
		return exitUsage
	}
	if o.seeds <= 0 {
		fmt.Fprintf(stderr, "verify: -seeds must be positive (got %d)\n", o.seeds)
		return exitUsage
	}
	sockets, cores, tpc, err := parseTopology(o.topology)
	if err != nil {
		fmt.Fprintf(stderr, "verify: %v\n", err)
		return exitUsage
	}
	// Flag parsing already screens -htmmodel/-layout, but in-process callers
	// (tests) set the fields directly; keep a bad axis a usage error either
	// way rather than an ERROR on every seed.
	if err := runopts.ValidateHTMModel(o.HTMModel); err != nil {
		fmt.Fprintf(stderr, "verify: %v\n", err)
		return exitUsage
	}
	if err := runopts.ValidateLayout(o.Layout); err != nil {
		fmt.Fprintf(stderr, "verify: %v\n", err)
		return exitUsage
	}
	maxThreads := sockets * cores * tpc
	opts := check.Opts{
		Faults:         o.Plan(),
		MaxCycles:      o.MaxCycles,
		StallCycles:    o.EffectiveStallCycles(),
		Sockets:        sockets,
		Cores:          cores,
		ThreadsPerCore: tpc,
		Model:          o.HTMModel,
		Layout:         o.Layout,
	}
	o.Banner(stdout)
	if o.topology != "" {
		fmt.Fprintf(stdout, "verify: topology %d sockets x %d cores x %d threads (%d simulated threads)\n",
			sockets, cores, tpc, maxThreads)
	}
	if o.HTMModel != "" {
		fmt.Fprintf(stdout, "verify: htm model %s\n", o.HTMModel)
	}
	if o.Layout != "" {
		fmt.Fprintf(stdout, "verify: memory layout %s\n", o.Layout)
	}

	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Seeds are independent jobs: fan out across host workers, then collect
	// in seed order so output stays byte-deterministic regardless of
	// -parallel, errored and quarantined seeds included.
	e := runner.New(workers)
	o.ArmPoison(e, stderr)

	// Lazy submission keeps a window of jobs ahead of the in-order
	// collector, so an interrupt stops the sweep within one window instead
	// of running every remaining seed to completion.
	futs := make([]runner.Future[seedOutcome], o.seeds)
	submitted := 0
	submitThrough := func(target int) {
		for ; submitted < min(target, o.seeds); submitted++ {
			i := submitted
			futs[i] = runner.Submit(e, runner.Key(fmt.Sprintf("seed/%d", i+1)), func() (seedOutcome, error) {
				seed := int64(i + 1)
				w := check.Generate(seed, check.ShapeForTopology(seed, maxThreads))
				return renderOutcome(i, check.Differential(w, engines, opts), o.verbose), nil
			})
		}
	}

	var total seedOutcome
	counts := map[string]int{}
	badSeeds, errored, completed, skipped := 0, 0, 0, 0
	for i := 0; i < o.seeds; i++ {
		if i >= submitted {
			if interrupted.Load() {
				skipped = o.seeds - i
				break
			}
			submitThrough(i + 2*workers)
		}
		out, err := futs[i].Wait()
		if err != nil {
			// Containment: one errored seed is reported in place; the rest of
			// the sweep still cross-checks.
			errored++
			fmt.Fprintf(stdout, "seed %4d ERROR %v\n", i+1, err)
			continue
		}
		fmt.Fprint(stdout, out.Lines)
		completed++
		total.Txns += out.Txns
		total.Starts += out.Starts
		total.Aborts += out.Aborts
		total.Fallbacks += out.Fallbacks
		total.TL2Aborts += out.TL2Aborts
		for k, n := range out.Counts {
			counts[k] += n
		}
		if out.Bad {
			badSeeds++
		}
	}

	if interrupted.Load() && skipped > 0 {
		fmt.Fprintf(stderr, "verify: interrupted with %d seed(s) done and %d to go; a rerun starts over\n", completed, skipped)
		return exitInterrupted
	}

	fmt.Fprintf(stdout, "verify: %d seeds x %s: %d divergences, %d serializability violations, %d invariant violations, %d failures\n",
		o.seeds, o.engines,
		counts[string(check.KindDivergence)], counts[string(check.KindSerializability)],
		counts[string(check.KindInvariant)], counts[string(check.KindFailure)])
	fmt.Fprintf(stdout, "verify: %d transactions per engine; tsx starts %d aborts %d fallbacks %d; tl2 aborts %d\n",
		total.Txns, total.Starts, total.Aborts, total.Fallbacks, total.TL2Aborts)
	if badSeeds > 0 {
		fmt.Fprintf(stdout, "verify: FAILED on %d of %d seeds\n", badSeeds, o.seeds)
		return exitTotalFailure
	}
	if errored > 0 {
		fmt.Fprintf(stdout, "verify: DEGRADED: %d of %d seeds errored (%d quarantined); the rest agree\n",
			errored, o.seeds, len(e.Quarantined()))
		st := e.Stats()
		if completed == 0 || int(st.Quarantined) > o.Quarantine {
			return exitTotalFailure
		}
		return exitDegraded
	}
	fmt.Fprintf(stdout, "verify: OK\n")
	return exitOK
}
