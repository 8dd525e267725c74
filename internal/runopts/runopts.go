// Package runopts is the shared experiment-runner flag plumbing for every
// cmd binary: host parallelism (-parallel), deterministic fault injection
// (-chaos at the machine level, -poison at the job level), robustness
// budgets (-maxcycles, -stallcycles), the quarantine cap (-quarantine), and
// the persistent result cache (-cache), which is also the resume point: a
// rerun against the same cache serves every cell an interrupted run
// finished. cmd/reproduce and the per-figure tools
// (stamp, rmstm, apps, netbench, clomptm) all register the same flags and
// funnel them through Setup, so a knob added here reaches every binary.
package runopts

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/faults"
	"tsxhpc/internal/htm"
	"tsxhpc/internal/memo"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/sim"
)

// DefaultCacheDir is where the persistent result cache lives unless -cache
// overrides it (gitignored; entries are scoped by model fingerprint inside).
const DefaultCacheDir = ".memo-cache"

// CacheOff is the -cache value that disables the persistent cache.
const CacheOff = "off"

// DefaultQuarantine caps quarantined cells per sweep: past it the run counts
// as a total failure rather than a degraded success.
const DefaultQuarantine = 64

// DefaultChaosStallCycles is the livelock watchdog window armed when -chaos
// is on but -stallcycles was not given: generous against the slowest
// healthy experiment, tiny against a real livelock's unbounded spin.
const DefaultChaosStallCycles = 200_000_000

// DefaultTraceEvents caps each machine's span buffer when -trace is on:
// enough for the contended workloads' full transactional history, bounded so
// a pathological run cannot exhaust memory (overflow is counted and reported
// in the trace, never silently dropped).
const DefaultTraceEvents = 8192

// MetricsSchema identifies the -metricsout sidecar format; bump on
// incompatible changes so downstream consumers can refuse gracefully.
const MetricsSchema = "tsxhpc-metrics/1"

// Options are the parsed shared settings. Tools embed it in their own
// options struct so tests can drive runs in-process without a FlagSet.
type Options struct {
	// Parallel is the host worker bound (<=0: GOMAXPROCS).
	Parallel int
	// Cache is the persistent result-cache directory; "" or "off" disables.
	Cache string
	// ChaosSeed enables deterministic fault injection when ChaosSet.
	ChaosSeed int64
	// ChaosSet records whether -chaos was present (seed 0 is valid).
	ChaosSet bool
	// MaxCycles bounds each simulated run's virtual cycles (0: unlimited).
	MaxCycles uint64
	// StallCycles arms the livelock watchdog (0: chaos default with -chaos,
	// else off).
	StallCycles uint64

	// Quarantine is the maximum quarantined cells before the sweep counts as
	// a total failure instead of a degraded success (flag default
	// DefaultQuarantine; 0 means any quarantine fails the run).
	Quarantine int
	// Poison is a comma-separated list of cell-key prefixes that fail
	// before their store probe (the injected quarantine case).
	Poison string

	// Metrics arms the probe layer (internal/probe) on every simulated
	// machine and writes the metrics sidecar after the run.
	Metrics bool
	// MetricsOut overrides the metrics sidecar path (implies Metrics; the
	// default is METRICS_<tool>.json in the working directory).
	MetricsOut string
	// TracePath, when non-empty, attaches bounded span buffers to every
	// machine and writes a Chrome trace-event JSON file there after the run.
	TracePath string

	// HTMModel selects the HTM capacity/conflict model on every simulated
	// machine ("" keeps the default l1bloom design; see htm.ModelNames).
	HTMModel string
	// Layout selects the memory allocator's placement policy on every
	// simulated machine ("" keeps the default packed bump allocator; see
	// sim.LayoutNames).
	Layout string
}

// Register binds the shared flags into fs. Call Finish after fs.Parse to
// capture flag presence.
func Register(fs *flag.FlagSet, o *Options) {
	fs.IntVar(&o.Parallel, "parallel", runtime.GOMAXPROCS(0), "host worker goroutines for simulation jobs (<=0: GOMAXPROCS)")
	fs.StringVar(&o.Cache, "cache", DefaultCacheDir, `persistent result-cache directory ("off" disables; entries are scoped by model fingerprint)`)
	fs.Int64Var(&o.ChaosSeed, "chaos", 0, "enable deterministic fault injection with this seed (same seed, same output)")
	fs.Uint64Var(&o.MaxCycles, "maxcycles", 0, "virtual-cycle budget per simulated run (0: unlimited)")
	fs.Uint64Var(&o.StallCycles, "stallcycles", 0, "virtual cycles without progress before a run is declared livelocked (0: chaos default with -chaos, else off)")
	fs.IntVar(&o.Quarantine, "quarantine", DefaultQuarantine, "max quarantined cells before the sweep counts as a total failure")
	fs.StringVar(&o.Poison, "poison", "", "comma-separated cell-key prefixes that fail deterministically (exercises quarantine)")
	fs.BoolVar(&o.Metrics, "metrics", false, "arm the probe layer (abort anatomy, virtual-time phases, L1 events) and write a metrics sidecar after the run")
	fs.StringVar(&o.MetricsOut, "metricsout", "", "metrics sidecar path (implies -metrics; default METRICS_<tool>.json)")
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome trace-event JSON file of per-thread transactional spans to this path")
	fs.Var(validated{&o.HTMModel, ValidateHTMModel}, "htmmodel",
		"HTM capacity/conflict model for every simulated machine (l1bloom, strict, victim, reqloses; default l1bloom)")
	fs.Var(validated{&o.Layout, ValidateLayout}, "layout",
		"memory allocator placement policy for every simulated machine (packed, randomized, colliding; default packed)")
}

// validated is a flag.Value that rejects invalid spellings at parse time, so
// a typo in -htmmodel/-layout is a usage error with the valid names listed,
// never a panic inside machine construction mid-sweep.
type validated struct {
	s     *string
	check func(string) error
}

func (v validated) String() string {
	if v.s == nil {
		return ""
	}
	return *v.s
}

func (v validated) Set(val string) error {
	if err := v.check(val); err != nil {
		return err
	}
	*v.s = val
	return nil
}

// ValidateHTMModel screens a -htmmodel value ("" is the default and valid).
// Exposed so tools that build machines from in-process options structs
// (cmd/verify's tests) can validate without a FlagSet.
func ValidateHTMModel(name string) error {
	_, err := htm.ParseModel(name)
	return err
}

// ValidateLayout screens a -layout value ("" is the default and valid).
func ValidateLayout(name string) error {
	_, err := sim.ParseLayout(name)
	return err
}

// Finish records flag presence (-chaos, where seed 0 is valid) and
// resolves flag implications (-metricsout implies -metrics).
func (o *Options) Finish(fs *flag.FlagSet) {
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "chaos" {
			o.ChaosSet = true
		}
	})
	if o.MetricsOut != "" {
		o.Metrics = true
	}
}

// ProbesArmed reports whether any observability output was requested, i.e.
// whether simulated machines should carry probe state.
func (o *Options) ProbesArmed() bool {
	return o.Metrics || o.MetricsOut != "" || o.TracePath != ""
}

// CacheDir resolves the cache directory: "" when the cache is off.
func (o *Options) CacheDir() string {
	if o.Cache == CacheOff {
		return ""
	}
	return o.Cache
}

// Plan returns the deterministic fault plan -chaos selects, or nil when
// chaos is off. Tools that build machines explicitly (cmd/verify) use it
// instead of the process-wide defaults Setup installs.
func (o *Options) Plan() sim.FaultPlan {
	if !o.ChaosSet {
		return nil
	}
	return faults.Chaos(o.ChaosSeed)
}

// ArmPoison installs the -poison hook on e: a cell whose key starts with one
// of the listed prefixes fails before its store probe, so it is quarantined
// even when the cache holds it. The note goes to warn (stderr by convention)
// so stdout stays comparable with clean runs. No-op without -poison.
func (o *Options) ArmPoison(e *runner.Engine, warn io.Writer) {
	var prefixes []string
	for _, pre := range strings.Split(o.Poison, ",") {
		if pre = strings.TrimSpace(pre); pre != "" {
			prefixes = append(prefixes, pre)
		}
	}
	if len(prefixes) == 0 {
		return
	}
	fmt.Fprintf(warn, "poison: cells with key prefix %q fail deterministically\n", prefixes)
	e.SetInject(func(k runner.Key) error {
		for _, pre := range prefixes {
			if strings.HasPrefix(string(k), pre) {
				return fmt.Errorf("poisoned cell %s (-poison %s)", k, pre)
			}
		}
		return nil
	})
}

// ReportSupervision lists the quarantined cells on w (stderr by convention:
// it is diagnostics, stdout stays byte-identical). Silent when nothing
// failed.
func ReportSupervision(w io.Writer, e *runner.Engine) {
	q := e.Quarantined()
	for _, k := range q {
		fmt.Fprintf(w, "supervise: %s quarantined\n", k)
	}
	if len(q) > 0 {
		fmt.Fprintf(w, "supervise: %d cell(s) quarantined\n", len(q))
	}
}

// EffectiveStallCycles resolves the livelock-watchdog window: an explicit
// -stallcycles wins; otherwise -chaos arms the default, and faults-off runs
// leave the watchdog disarmed.
func (o *Options) EffectiveStallCycles() uint64 {
	if o.StallCycles == 0 && o.ChaosSet {
		return DefaultChaosStallCycles
	}
	return o.StallCycles
}

// Setup installs the process-wide run defaults (fault plan, cycle budgets),
// opens the persistent result store, and builds an experiment suite wired
// to it. warn receives non-fatal notes (e.g. the cache being disabled
// because the build cannot be fingerprinted). The returned cleanup restores
// the run defaults; call it when the run is over so in-process callers
// (tests) do not leak fault injection into each other.
func (o *Options) Setup(warn io.Writer) (suite *experiments.Suite, store *memo.Store, cleanup func()) {
	stall := o.EffectiveStallCycles()
	cleanup = func() {}
	if o.ChaosSet || o.MaxCycles > 0 || stall > 0 || o.ProbesArmed() || o.HTMModel != "" || o.Layout != "" {
		d := sim.RunDefaults{MaxCycles: o.MaxCycles, StallCycles: stall, Faults: o.Plan(),
			HTMModel: o.HTMModel, Layout: o.Layout}
		if o.ProbesArmed() {
			d.Metrics = o.Metrics
			if o.TracePath != "" {
				d.TraceEvents = DefaultTraceEvents
			}
			// Fresh collector per run: in-process callers (tests) must not
			// merge a previous run's sources into this run's sidecars.
			probe.ResetGlobal()
		}
		sim.SetRunDefaults(d)
		cleanup = func() { sim.SetRunDefaults(sim.RunDefaults{}) }
	}
	suite = experiments.NewSuite(o.Parallel)
	o.ArmPoison(suite.E, warn)
	if o.ProbesArmed() && o.CacheDir() != "" {
		// A cache-served cell never simulates, so it registers no probe
		// sources and its counters would silently vanish from the sidecar;
		// observability runs must simulate everything they report on.
		fmt.Fprintf(warn, "cache disabled: probes are armed (cached cells would report no metrics)\n")
	} else if dir := o.CacheDir(); dir != "" {
		// After SetRunDefaults: the fingerprint must see the armed fault
		// plan so chaos runs never share entries with fault-free ones.
		st, err := memo.Open(dir)
		if err != nil {
			fmt.Fprintf(warn, "cache disabled: %v\n", err)
		} else {
			store = st
			suite.E.SetStore(st)
		}
	}
	return suite, store, cleanup
}

// Banner writes the chaos banner exactly as cmd/reproduce always has, so
// every binary reports fault injection the same way.
func (o *Options) Banner(w io.Writer) {
	if o.ChaosSet {
		fmt.Fprintf(w, "chaos: fault injection enabled (seed %d)\n", o.ChaosSeed)
	}
}

// MetricsCounter is one counter row of the metrics sidecar.
type MetricsCounter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// MetricsHist is one histogram row of the metrics sidecar (power-of-two
// buckets; mean = sum/count).
type MetricsHist struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets"`
}

// MetricsReport is the -metrics/-metricsout sidecar schema: the merged probe
// snapshot of every machine the run simulated, plus enough run provenance
// (tool, toolchain, scheduler backend, fault injection, parallelism) to
// interpret it. Counters and histograms are name-sorted, and the snapshot is
// a pure function of the simulated schedules, so the sidecar is
// byte-identical at any -parallel.
type MetricsReport struct {
	Schema    string           `json:"schema"`
	Tool      string           `json:"tool"`
	GoVersion string           `json:"go_version"`
	Scheduler string           `json:"scheduler"`
	Chaos     bool             `json:"chaos"`
	Parallel  int              `json:"parallel"`
	Counters  []MetricsCounter `json:"counters"`
	Hists     []MetricsHist    `json:"hists"`
}

// MetricsPath resolves the sidecar path for tool ("" when metrics are off).
func (o *Options) MetricsPath(tool string) string {
	if !o.Metrics && o.MetricsOut == "" {
		return ""
	}
	if o.MetricsOut != "" {
		return o.MetricsOut
	}
	return "METRICS_" + tool + ".json"
}

// BuildMetricsReport drains the process-wide probe collector into a sidecar
// report. Call only after every simulation job has completed (futures
// collected), so the snapshot functions see final counter values.
func (o *Options) BuildMetricsReport(tool string) MetricsReport {
	snap := probe.GlobalSnapshot()
	rep := MetricsReport{
		Schema:    MetricsSchema,
		Tool:      tool,
		GoVersion: runtime.Version(),
		Scheduler: sim.SchedulerBackend(),
		Chaos:     o.ChaosSet,
		Parallel:  o.Parallel,
	}
	for _, c := range snap.Counters {
		rep.Counters = append(rep.Counters, MetricsCounter{Name: c.Name, Value: c.Value})
	}
	for _, h := range snap.Hists {
		rep.Hists = append(rep.Hists, MetricsHist{Name: h.Name, Count: h.Count, Sum: h.Sum, Buckets: h.Buckets})
	}
	return rep
}

// WriteObservability writes the observability sidecars the run asked for:
// the metrics JSON (-metrics/-metricsout) and the Chrome trace (-trace).
// Progress notes go to warn (stderr by convention), keeping stdout
// byte-identical whether or not probes were armed. No-op when neither was
// requested, so every tool can call it unconditionally.
func (o *Options) WriteObservability(tool string, warn io.Writer) error {
	if path := o.MetricsPath(tool); path != "" {
		rep := o.BuildMetricsReport(tool)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("metrics sidecar: %w", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("metrics sidecar: %w", err)
		}
		fmt.Fprintf(warn, "metrics: wrote %d counters, %d histograms to %s\n", len(rep.Counters), len(rep.Hists), path)
	}
	if o.TracePath != "" {
		f, err := os.Create(o.TracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := probe.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(warn, "trace: wrote Chrome trace-event JSON to %s (open in a trace viewer)\n", o.TracePath)
	}
	return nil
}
