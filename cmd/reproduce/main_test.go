package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/runopts"
)

// These tests drive the whole tool in-process through run(). They must not
// run in parallel with each other: run() may install process-wide
// sim.RunDefaults (restored on return).

// TestRunSubsetSucceeds is the plain path: a fast subset reproduces cleanly,
// exit code 0, section headers present, success footer intact, and its
// metrics sidecar passes the schema checker.
func TestRunSubsetSucceeds(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var out, errOut strings.Builder
	code := run(options{Options: runopts.Options{Metrics: true, MetricsOut: metrics}, only: "A3"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "--- ablation: lockset elision ---") {
		t.Fatalf("missing section header:\n%s", s)
	}
	if !strings.Contains(s, "reproduced all experiments in") {
		t.Fatalf("missing success footer:\n%s", s)
	}
	// A3 runs no TL2 cells, so tl2/ is not among the required prefixes.
	check := exec.Command("go", "run", "../../scripts/checkmetrics", "-metrics", metrics, "-require", "htm/,vt/,l1/")
	if b, err := check.CombinedOutput(); err != nil {
		t.Fatalf("checkmetrics rejected the A3 sidecar: %v\n%s", err, b)
	}
}

// TestRunUnknownOnly checks usage errors: an unknown selector is a distinct
// exit code with the valid ids listed, and nothing runs.
func TestRunUnknownOnly(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "E99"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errOut.String()
	if !strings.Contains(msg, `unknown experiment "E99"`) {
		t.Fatalf("stderr does not name the bad selector: %s", msg)
	}
	// The error must teach the fix: every catalog alias listed, in order.
	aliases := make([]string, 0, len(catalog))
	for _, ex := range catalog {
		aliases = append(aliases, ex.alias)
	}
	if want := "(valid: " + strings.Join(aliases, ", ") + ")"; !strings.Contains(msg, want) {
		t.Fatalf("stderr %q does not list the valid ids %q", msg, want)
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected stdout: %s", out.String())
	}
}

// TestRunCycleBudgetContainment is the graceful-degradation contract at the
// CLI level: an impossibly small virtual-cycle budget fails each selected
// experiment in place — typed stall message with per-thread states — while
// the run completes, lists the failures, and exits non-zero.
func TestRunCycleBudgetContainment(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{Options: runopts.Options{MaxCycles: 100_000}, only: "E9,A3"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "FAILED:"); got != 2 {
		t.Fatalf("FAILED sections = %d, want 2 (one per selected experiment):\n%s", got, s)
	}
	for _, want := range []string{
		// The dump names the thread that tripped the budget in the headline
		// ("last running tN"); per-thread lines report runnable/blocked/done —
		// the scheduler does not track a separate "running" state.
		"virtual-cycle budget of 100000 exceeded (last running t",
		"state=runnable",
		"failures:",
		"reproduced with 2 failed experiment(s) in",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "reproduced all experiments") {
		t.Fatalf("success footer printed despite failures:\n%s", s)
	}
}

// TestRunChaosDeterministic checks the -chaos contract: same seed, same
// stdout (the host-time footer excepted — it is compared structurally).
func TestRunChaosDeterministic(t *testing.T) {
	render := func(seed int64) string {
		var out, errOut strings.Builder
		code := run(options{Options: runopts.Options{ChaosSet: true, ChaosSeed: seed}, only: "A3"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("chaos run exit = %d: %s%s", code, out.String(), errOut.String())
		}
		s := out.String()
		if !strings.Contains(s, "chaos: fault injection enabled (seed") {
			t.Fatalf("missing chaos banner:\n%s", s)
		}
		// Strip the wall-clock footer before comparing.
		i := strings.LastIndex(s, "\nreproduced all experiments in")
		return s[:i]
	}
	a := render(7)
	b := render(7)
	if a != b {
		t.Fatalf("same chaos seed produced different output:\n%s\n---\n%s", a, b)
	}
}

// stripFooter removes the run-variant host-time footer: everything above it
// is the byte-comparable experiment output.
func stripFooter(t *testing.T, s string) string {
	t.Helper()
	i := strings.LastIndex(s, "\nreproduced all experiments in")
	if i < 0 {
		t.Fatalf("missing success footer:\n%s", s)
	}
	return s[:i]
}

func readBench(t *testing.T, path string) benchReport {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunWarmColdFullCatalog is the headline cache contract over the whole
// catalog: a second run against a populated cache simulates nothing — every
// cell is served from disk — and its stdout is byte-identical to the cold
// run's, and the two bench reports show the hit counts and the speed-up.
func TestRunWarmColdFullCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog (twice) is too slow for -short")
	}
	cache := t.TempDir()
	bench := filepath.Join(t.TempDir(), "bench.json")
	do := func(wrap func(runner.Store) runner.Store) (string, benchReport) {
		var out, errOut strings.Builder
		if code := run(options{Options: runopts.Options{Cache: cache}, benchPath: bench, wrapStore: wrap}, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return out.String(), readBench(t, bench)
	}
	keys := &keyRecorder{seen: map[runner.Key]bool{}}
	coldOut, coldRep := do(func(s runner.Store) runner.Store { keys.Store = s; return keys })
	if coldRep.CacheHits != 0 || coldRep.JobsExecuted == 0 {
		t.Fatalf("cold run report = %+v, want 0 hits and >0 executed", coldRep)
	}
	checkCellKeys(t, keys.sorted())
	warmOut, warmRep := do(nil)
	if stripFooter(t, coldOut) != stripFooter(t, warmOut) {
		t.Fatal("warm stdout differs from cold stdout")
	}
	if warmRep.JobsExecuted != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", warmRep.JobsExecuted)
	}
	if warmRep.CacheHits == 0 || warmRep.CacheMisses != 0 || warmRep.CacheInvalid != 0 {
		t.Fatalf("warm run cache counts = %d/%d/%d, want all hits",
			warmRep.CacheHits, warmRep.CacheMisses, warmRep.CacheInvalid)
	}
	// Entry decoding is ~three orders of magnitude faster than simulating;
	// 10x leaves generous headroom for a noisy CI host.
	if warmRep.TotalSeconds <= 0 || warmRep.TotalSeconds > coldRep.TotalSeconds/10 {
		t.Fatalf("warm run not >=10x faster: cold %.3fs, warm %.3fs", coldRep.TotalSeconds, warmRep.TotalSeconds)
	}

	// The paper's claims (DESIGN §5), judged on the cells the cold run
	// computed: a suite over the same store serves every one.
	o := runopts.Options{Cache: cache}
	suite, _, cleanup := o.Setup(io.Discard)
	defer cleanup()
	claims, err := suite.Claims()
	if err != nil {
		t.Fatal(err)
	}
	if n := suite.E.Stats().Executed; n != 0 {
		t.Fatalf("claims simulated %d cells, want all served from the store", n)
	}
	for _, c := range claims {
		t.Logf("%s: %v — %s", c.ID, c.Outcome, c.Detail)
		if c.Outcome == experiments.Fails {
			t.Errorf("claim %s fails: %s\n%s", c.ID, c.Target, c.Detail)
		}
	}
}

// keyRecorder is a runner.Store that records every key a run loads.
type keyRecorder struct {
	runner.Store
	mu   sync.Mutex
	seen map[runner.Key]bool
}

func (r *keyRecorder) Load(key runner.Key, out any) runner.LoadStatus {
	r.mu.Lock()
	r.seen[key] = true
	r.mu.Unlock()
	return r.Store.Load(key, out)
}

func (r *keyRecorder) sorted() []string {
	keys := make([]string, 0, len(r.seen))
	for k := range r.seen {
		keys = append(keys, string(k))
	}
	slices.Sort(keys)
	return keys
}

// cellKeysGolden is the sorted set of cell keys a cold full catalog
// submits, one a line. Keys name cells in the store's log, in quarantine
// lists and in -poison prefixes, so no change may rename one by accident.
const cellKeysGolden = "testdata/cellkeys.golden"

// checkCellKeys compares keys with the golden and names each key only one
// side holds.
func checkCellKeys(t *testing.T, keys []string) {
	t.Helper()
	got := strings.Join(keys, "\n") + "\n"
	want, err := os.ReadFile(cellKeysGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantKeys := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for _, k := range keys {
			if !slices.Contains(wantKeys, k) {
				t.Errorf("cell key %q is not in %s", k, cellKeysGolden)
			}
		}
		for _, k := range wantKeys {
			if !slices.Contains(keys, k) {
				t.Errorf("cell key %q of %s was not submitted", k, cellKeysGolden)
			}
		}
		t.Fatalf("the catalog's cell keys (%d) differ from %s (%d)", len(keys), cellKeysGolden, len(wantKeys))
	}
}

// TestRunChaosSeedIsolation: different chaos seeds produce different model
// fingerprints, so runs never share cache entries — and equal seeds do.
func TestRunChaosSeedIsolation(t *testing.T) {
	cache := t.TempDir()
	benchDir := t.TempDir()
	do := func(seed int64, name string) benchReport {
		var out, errOut strings.Builder
		bench := filepath.Join(benchDir, name)
		o := options{
			Options:   runopts.Options{Cache: cache, ChaosSet: true, ChaosSeed: seed},
			only:      "A3",
			benchPath: bench,
		}
		if code := run(o, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return readBench(t, bench)
	}
	first := do(1, "b1.json")
	if first.CacheHits != 0 {
		t.Fatalf("first seed-1 run hit %d entries in an empty cache", first.CacheHits)
	}
	other := do(2, "b2.json")
	if other.CacheHits != 0 {
		t.Fatalf("seed-2 run shared %d entries with seed 1", other.CacheHits)
	}
	if other.Fingerprint == first.Fingerprint {
		t.Fatal("seeds 1 and 2 share a model fingerprint")
	}
	again := do(1, "b3.json")
	if again.CacheHits == 0 || again.JobsExecuted != 0 {
		t.Fatalf("repeat seed-1 run did not reuse its entries: %+v", again)
	}
}

// TestRunBenchReport: -bench writes one row per section the run rendered,
// and a run with the default flags writes no report into the working
// directory.
func TestRunBenchReport(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	if code := run(options{only: "A3", benchPath: bench}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	rep := readBench(t, bench)
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "ablation: lockset elision" || rep.Experiments[0].SimEvents == 0 {
		t.Fatalf("report rows = %+v, want one A3 row with its events", rep.Experiments)
	}

	var o options
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	register(fs, &o)
	if err := fs.Parse([]string{"-only", "A3"}); err != nil {
		t.Fatal(err)
	}
	o.Finish(fs)
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if code := run(o, &out, &errOut); code != 0 {
		t.Fatalf("default-flags run exit = %d; stderr: %s", code, errOut.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != runopts.DefaultCacheDir {
			t.Errorf("default-flags run wrote %s into the working directory", e.Name())
		}
	}
}

// TestRunBadOutputPath: an unwritable -bench, -metricsout or -trace path is
// a usage error before any section runs, so a bad path costs no simulation.
func TestRunBadOutputPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out.json")
	for name, o := range map[string]options{
		"bench":      {only: "A3", benchPath: bad},
		"metricsout": {Options: runopts.Options{MetricsOut: bad}, only: "A3"},
		"trace":      {Options: runopts.Options{TracePath: bad}, only: "A3"},
	} {
		var out, errOut strings.Builder
		if code := run(o, &out, &errOut); code != exitUsage || out.Len() != 0 {
			t.Errorf("-%s %s: exit = %d, stdout %q; want exit %d and no output", name, bad, code, out.String(), exitUsage)
		}
	}
}

// TestRunTimeout checks the host wall-clock budget: a budget no experiment
// can meet fails the section with a timeout cause and a non-zero exit.
func TestRunTimeout(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "E2", timeout: time.Nanosecond}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "host wall-clock budget exceeded") {
		t.Fatalf("missing timeout cause:\n%s", out.String())
	}
}

// TestRunCPUProfile: -cpuprofile writes a profile of the run; an unwritable
// path is a usage error before anything runs.
func TestRunCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var out, errOut strings.Builder
	if code := run(options{only: "A3", cpuProfile: prof}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
	out.Reset()
	bad := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	if code := run(options{only: "A3", cpuProfile: bad}, &out, &errOut); code != exitUsage || out.Len() != 0 {
		t.Fatalf("unwritable profile path: exit = %d, stdout %q", code, out.String())
	}
}
