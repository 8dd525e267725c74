package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tsxhpc/internal/runopts"
)

// These tests drive the whole tool in-process through run(). They must not
// run in parallel with each other: run() may install process-wide
// sim.RunDefaults (restored on return).

// TestRunSubsetSucceeds is the plain path: a fast subset reproduces cleanly,
// exit code 0, section headers present, success footer intact.
func TestRunSubsetSucceeds(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "A3", benchPath: ""}, &out, &errOut)
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
}

// TestRunUnknownOnly checks usage errors: an unknown selector is a distinct
// exit code with the valid ids listed, and nothing runs.
func TestRunUnknownOnly(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "E99", benchPath: ""}, &out, &errOut)
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
	code := run(options{Options: runopts.Options{MaxCycles: 100_000}, only: "E9,A3", benchPath: ""}, &out, &errOut)
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
		code := run(options{Options: runopts.Options{ChaosSet: true, ChaosSeed: seed}, only: "A3", benchPath: ""}, &out, &errOut)
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
// run's, while the bench report records the cold/warm pair with the hit
// counts.
func TestRunWarmColdFullCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog (twice) is too slow for -short")
	}
	cache := t.TempDir()
	bench := filepath.Join(t.TempDir(), "bench.json")
	do := func() (string, benchReport) {
		var out, errOut strings.Builder
		if code := run(options{Options: runopts.Options{Cache: cache}, benchPath: bench}, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return out.String(), readBench(t, bench)
	}
	coldOut, coldRep := do()
	if coldRep.CacheHits != 0 || coldRep.JobsExecuted == 0 {
		t.Fatalf("cold run report = %+v, want 0 hits and >0 executed", coldRep)
	}
	warmOut, warmRep := do()
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
	if warmRep.ColdSeconds != coldRep.ColdSeconds || warmRep.WarmSeconds <= 0 {
		t.Fatalf("bench did not record the cold/warm pair: cold %.3f→%.3f, warm %.3f",
			coldRep.ColdSeconds, warmRep.ColdSeconds, warmRep.WarmSeconds)
	}
	// Entry decoding is ~three orders of magnitude faster than simulating;
	// 10x leaves generous headroom for a noisy CI host.
	if warmRep.WarmSeconds > coldRep.ColdSeconds/10 {
		t.Fatalf("warm run not >=10x faster: cold %.3fs, warm %.3fs", coldRep.ColdSeconds, warmRep.WarmSeconds)
	}
}

// TestRunBenchWarmCarriesEventStats: a fully cache-served run simulates
// nothing, so its own event counters are zero — the warm report must carry
// the cold run's total_sim_events / events_per_second forward rather than
// clobber them (the bench ratchet reads these fields from the committed
// report).
func TestRunBenchWarmCarriesEventStats(t *testing.T) {
	cache := t.TempDir()
	bench := filepath.Join(t.TempDir(), "bench.json")
	do := func() benchReport {
		var out, errOut strings.Builder
		o := options{
			Options:   runopts.Options{Cache: cache},
			only:      "A3",
			benchPath: bench,
			// Partial run: force the report so the test stays fast.
			benchForce: true,
		}
		if code := run(o, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return readBench(t, bench)
	}
	cold := do()
	if cold.JobsExecuted == 0 || cold.TotalSimEvents == 0 || cold.EventsPerSec <= 0 {
		t.Fatalf("cold run recorded no simulation work: %+v", cold)
	}
	warm := do()
	if warm.JobsExecuted != 0 || warm.CacheHits == 0 {
		t.Fatalf("second run was not fully cache-served: %+v", warm)
	}
	if warm.TotalSimEvents != cold.TotalSimEvents || warm.EventsPerSec != cold.EventsPerSec {
		t.Fatalf("warm run clobbered event stats: cold %d @ %.0f ev/s, warm %d @ %.0f ev/s",
			cold.TotalSimEvents, cold.EventsPerSec, warm.TotalSimEvents, warm.EventsPerSec)
	}
	// The per-experiment rows must carry too, not just the totals: a
	// cache-served section's own event counter is zero, and the report used
	// to record that zero over the cold run's real count.
	if len(warm.Experiments) != len(cold.Experiments) || len(cold.Experiments) == 0 {
		t.Fatalf("experiment rows: cold %d, warm %d", len(cold.Experiments), len(warm.Experiments))
	}
	for i, row := range warm.Experiments {
		if row.SimEvents == 0 || row.SimEvents != cold.Experiments[i].SimEvents {
			t.Fatalf("experiment %s sim_events: cold %d, warm %d",
				row.ID, cold.Experiments[i].SimEvents, row.SimEvents)
		}
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
			// A partial run: the report is only written because it is forced.
			benchForce: true,
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

// TestRunBenchPartialGuard: a -only subset must not clobber the
// full-catalog bench record unless forced.
func TestRunBenchPartialGuard(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	if code := run(options{only: "A3", benchPath: bench}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if _, err := os.Stat(bench); err == nil {
		t.Fatal("partial run wrote the bench file without -benchforce")
	}
	if !strings.Contains(errOut.String(), "partial (-only) run") {
		t.Fatalf("missing skip note on stderr: %s", errOut.String())
	}
	errOut.Reset()
	if code := run(options{only: "A3", benchPath: bench, benchForce: true}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	rep := readBench(t, bench)
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "ablation: lockset elision" {
		t.Fatalf("forced partial report = %+v", rep.Experiments)
	}
}

// TestRunTimeout checks the host wall-clock budget: a budget no experiment
// can meet fails the section with a timeout cause and a non-zero exit.
func TestRunTimeout(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "E2", benchPath: "", timeout: time.Nanosecond}, &out, &errOut)
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
