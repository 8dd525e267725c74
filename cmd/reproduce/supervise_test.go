package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/runopts"
)

// Supervision, quarantine, and rerun-as-resume tests. Like main_test.go,
// these drive run() in-process and must not run in parallel (process-wide
// sim.RunDefaults, the interrupted flag, the catalog).

// TestRunFailureSummaryDeterministic: a failing section settles every cell
// of its grid before it reports, so the quarantine list and the failures
// are the same at any parallelism.
func TestRunFailureSummaryDeterministic(t *testing.T) {
	render := func(parallel int) string {
		var out, errOut strings.Builder
		o := options{Options: runopts.Options{Parallel: parallel, Cache: runopts.CacheOff, MaxCycles: 100_000}, only: "E9,A3"}
		if code := run(o, &out, &errOut); code != 1 {
			t.Fatalf("-parallel %d: exit = %d, want 1; stderr: %s", parallel, code, errOut.String())
		}
		s := out.String()
		i := strings.LastIndex(s, "\nreproduced with 2 failed experiment(s) in")
		if i < 0 {
			t.Fatalf("-parallel %d: missing failure footer:\n%s", parallel, s)
		}
		return s[:i]
	}
	serial := render(1)
	if !strings.Contains(serial, "quarantined cells (10):") {
		t.Fatalf("want every cell of both grids quarantined:\n%s", serial)
	}
	if parallel := render(2); parallel != serial {
		t.Fatalf("failure summary depends on parallelism:\n-parallel 1:\n%s\n-parallel 2:\n%s", serial, parallel)
	}
}

// TestRunPoisonQuarantineDegraded: a poisoned cell prefix fails its section
// while the other section reproduces; the run reports the quarantined cells
// on stdout and exits with the degraded code, distinct from total failure.
func TestRunPoisonQuarantineDegraded(t *testing.T) {
	var out, errOut strings.Builder
	o := options{
		Options: runopts.Options{Quarantine: 8, Poison: "lockset/"},
		only:    "E9,A3",
	}
	code := run(o, &out, &errOut)
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d (degraded); stderr: %s", code, exitDegraded, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "FAILED:"); got != 1 {
		t.Fatalf("FAILED sections = %d, want 1 (A3 only):\n%s", got, s)
	}
	for _, want := range []string{
		"quarantined cells",
		"  lockset/",
		"poisoned cell lockset/",
		"reproduced with 1 failed experiment(s) in",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("stdout missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(errOut.String(), `poison: cells with key prefix ["lockset/"]`) {
		t.Fatalf("stderr missing poison note: %s", errOut.String())
	}

	// Same scenario with a zero quarantine cap: the same degradation now
	// counts as a total failure.
	out.Reset()
	errOut.Reset()
	o.Quarantine = 0
	if code := run(o, &out, &errOut); code != exitTotalFailure {
		t.Fatalf("exit with quarantine cap 0 = %d, want %d", code, exitTotalFailure)
	}
}

// wrapSection replaces the catalog entry with the given alias for the rest of
// the test: wrap receives the original section body.
func wrapSection(t *testing.T, alias string, wrap func(orig func(*experiments.Suite) (string, error), s *experiments.Suite) (string, error)) {
	t.Helper()
	for i := range catalog {
		if catalog[i].alias == alias {
			orig := catalog[i].run
			catalog[i].run = func(s *experiments.Suite) (string, error) { return wrap(orig, s) }
			t.Cleanup(func() { catalog[i].run = orig })
			return
		}
	}
	t.Fatalf("no catalog entry %q", alias)
}

// cleanRun reproduces only against a private cache and returns its stdout
// and bench record.
func cleanRun(t *testing.T, only string) (string, benchReport) {
	t.Helper()
	bench := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	o := options{Options: runopts.Options{Cache: t.TempDir()}, only: only, benchPath: bench}
	if code := run(o, &out, &errOut); code != 0 {
		t.Fatalf("clean run exit = %d; stderr: %s", code, errOut.String())
	}
	return out.String(), readBench(t, bench)
}

// rerun reproduces only against cache and checks that the rerun finished
// part of the work from the cache: cache hits > 0, fewer cells simulated
// than a clean run, stdout byte-identical to it.
func rerun(t *testing.T, cache, only string) {
	t.Helper()
	cleanOut, cleanRep := cleanRun(t, only)
	bench := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	o := options{Options: runopts.Options{Cache: cache}, only: only, benchPath: bench}
	if code := run(o, &out, &errOut); code != 0 {
		t.Fatalf("rerun exit = %d; stderr: %s", code, errOut.String())
	}
	rep := readBench(t, bench)
	if rep.CacheHits == 0 || rep.JobsExecuted >= cleanRep.JobsExecuted {
		t.Fatalf("rerun: %d hits, %d simulated (clean run: %d simulated); want hits > 0 and fewer simulated",
			rep.CacheHits, rep.JobsExecuted, cleanRep.JobsExecuted)
	}
	if stripFooter(t, cleanOut) != stripFooter(t, out.String()) {
		t.Fatalf("rerun stdout differs from a clean run:\n--- clean ---\n%s\n--- rerun ---\n%s", cleanOut, out.String())
	}
}

// TestRunResumeByteIdentity: a run that fails partway (A3 poisoned) has
// already saved the cells it finished; a plain rerun against the same cache
// serves them, simulates only the rest, and prints exactly what an
// uninterrupted run prints.
func TestRunResumeByteIdentity(t *testing.T) {
	cache := t.TempDir()
	var out, errOut strings.Builder
	o := options{Options: runopts.Options{Cache: cache, Quarantine: 8, Poison: "lockset/"}, only: "E9,A3"}
	if code := run(o, &out, &errOut); code != exitDegraded {
		t.Fatalf("poisoned run exit = %d, want %d; stderr: %s", code, exitDegraded, errOut.String())
	}
	rerun(t, cache, "E9,A3")
}

// TestRunInterruptExitsResumable: an interrupt that lands during E9 (what
// the first SIGINT does) lets E9 finish, skips A3, and exits 130 with a hint
// that a plain rerun serves the finished cells from the cache. The rerun
// completes byte-identically. With the cache off, the hint says a rerun
// starts over.
func TestRunInterruptExitsResumable(t *testing.T) {
	armed := true
	wrapSection(t, "E9", func(orig func(*experiments.Suite) (string, error), s *experiments.Suite) (string, error) {
		if armed {
			interrupted.Store(true)
		}
		return orig(s)
	})
	defer interrupted.Store(false)
	interruptedRun := func(cache string) string {
		var out, errOut strings.Builder
		o := options{Options: runopts.Options{Cache: cache}, only: "E9,A3"}
		code := run(o, &out, &errOut)
		interrupted.Store(false)
		if code != exitInterrupted {
			t.Fatalf("exit = %d, want %d; stderr: %s", code, exitInterrupted, errOut.String())
		}
		if strings.Contains(out.String(), "reproduced") || !strings.Contains(out.String(), "--- E9 ---") {
			t.Fatalf("interrupted run should print E9 and no completion footer:\n%s", out.String())
		}
		return errOut.String()
	}

	if msg := interruptedRun(runopts.CacheOff); !strings.Contains(msg, "1 section(s) to go (cache off; a rerun starts over)") {
		t.Fatalf("stderr missing start-over hint: %s", msg)
	}
	cache := t.TempDir()
	if msg := interruptedRun(cache); !strings.Contains(msg, "1 section(s) done and 1 to go; a plain rerun serves finished cells from "+cache) {
		t.Fatalf("stderr missing rerun hint: %s", msg)
	}
	armed = false
	rerun(t, cache, "E9,A3")
}

// TestRunReportsCacheSaveErrors: a store that cannot save (here its
// directory vanishes after Open) turns every rerun cold; the run still
// succeeds but says so on stderr.
func TestRunReportsCacheSaveErrors(t *testing.T) {
	cache := t.TempDir()
	wrapSection(t, "A3", func(orig func(*experiments.Suite) (string, error), s *experiments.Suite) (string, error) {
		if err := os.RemoveAll(cache); err != nil {
			return "", err
		}
		return orig(s)
	})
	var out, errOut strings.Builder
	o := options{Options: runopts.Options{Cache: cache}, only: "A3"}
	if code := run(o, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "cache entries could not be saved to "+cache) {
		t.Fatalf("stderr missing save-error note: %s", errOut.String())
	}
}

// TestRunSectionPanicContained: a panic in a section's own rendering code —
// outside any runner job — fails that section in place; the other section
// reproduces and the run exits degraded.
func TestRunSectionPanicContained(t *testing.T) {
	for _, tc := range []struct {
		name string
		val  any
		want string
	}{
		{"error", errors.New("render bug"), "FAILED: experiment panicked: render bug"},
		{"value", 42, "FAILED: experiment panicked: 42"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrapSection(t, "A3", func(func(*experiments.Suite) (string, error), *experiments.Suite) (string, error) {
				panic(tc.val)
			})
			var out, errOut strings.Builder
			if code := run(options{only: "E9,A3"}, &out, &errOut); code != exitDegraded {
				t.Fatalf("exit = %d, want %d; stderr: %s", code, exitDegraded, errOut.String())
			}
			if s := out.String(); !strings.Contains(s, tc.want) || !strings.Contains(s, "--- E9 ---\n") {
				t.Fatalf("stdout missing %q or the E9 section:\n%s", tc.want, s)
			}
		})
	}
}
