package main

import (
	"strings"
	"testing"

	"tsxhpc/internal/runopts"
)

// Containment, quarantine, and interrupt tests for the verify sweep. These
// drive run() in-process and must not run in parallel (the package-level
// interrupted flag).

// TestVerifyPoisonContained: a seed whose harness fails deterministically is
// reported in place and the rest of the sweep still cross-checks — degraded
// exit, not total failure, unless the quarantine cap says otherwise.
func TestVerifyPoisonContained(t *testing.T) {
	o := options{seeds: 9, engines: "tsx,fine"}
	o.Options = runopts.Options{Quarantine: 8, Poison: "seed/4"}
	code, out, errOut := drive(t, o)
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d (degraded)\nstdout:\n%s\nstderr:\n%s", code, exitDegraded, out, errOut)
	}
	for _, want := range []string{
		"seed    4 ERROR poisoned cell seed/4",
		"verify: 9 seeds x tsx,fine:",
		"verify: DEGRADED: 1 of 9 seeds errored (1 quarantined); the rest agree",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "verify: OK") || strings.Contains(out, "FAILED") {
		t.Fatalf("degraded run claimed OK or FAILED:\n%s", out)
	}
	if !strings.Contains(errOut, `poison: cells with key prefix ["seed/4"]`) {
		t.Fatalf("stderr missing poison note:\n%s", errOut)
	}

	// A zero quarantine cap turns the same degradation into a total failure.
	o.Quarantine = 0
	if code, _, _ := drive(t, o); code != exitTotalFailure {
		t.Fatalf("exit with quarantine cap 0 = %d, want %d", code, exitTotalFailure)
	}
}

// TestVerifySupervisionParallelDeterminism: a sweep with quarantined seeds
// prints byte-identical stdout and stderr at -parallel 1 and 8, and the
// seeds that did run print exactly what a fault-free sweep prints for them.
func TestVerifySupervisionParallelDeterminism(t *testing.T) {
	do := func(parallel int) (string, string) {
		o := options{seeds: 12, engines: "tsx,fine", verbose: true}
		o.Options = runopts.Options{Parallel: parallel, Quarantine: 8, Poison: "seed/3,seed/7"}
		code, out, errOut := drive(t, o)
		if code != exitDegraded {
			t.Fatalf("exit = %d at -parallel %d\nstdout:\n%s\nstderr:\n%s", code, parallel, out, errOut)
		}
		return out, errOut
	}
	out1, err1 := do(1)
	out8, err8 := do(8)
	if out1 != out8 {
		t.Fatalf("-parallel changed stdout:\n%s\n---\n%s", out1, out8)
	}
	if err1 != err8 {
		t.Fatalf("-parallel changed stderr:\n%s\n---\n%s", err1, err8)
	}
	if !strings.Contains(out1, "verify: DEGRADED: 2 of 12 seeds errored (2 quarantined)") {
		t.Fatalf("stdout missing degraded verdict:\n%s", out1)
	}

	_, cleanOut, _ := drive(t, options{seeds: 12, engines: "tsx,fine", verbose: true})
	for _, line := range strings.Split(cleanOut, "\n") {
		if strings.HasPrefix(line, "seed ") && !strings.HasPrefix(line, "seed    3 ") && !strings.HasPrefix(line, "seed    7 ") &&
			!strings.Contains(out1, line+"\n") {
			t.Fatalf("quarantine changed a healthy seed's line %q:\n%s", line, out1)
		}
	}
}

// TestVerifyInterruptExitsResumable: with the interrupted flag raised (what
// the first SIGINT does), the sweep stops submitting seeds, exits 130 with a
// hint that a rerun starts over, and a plain rerun completes the clean
// sweep.
func TestVerifyInterruptExitsResumable(t *testing.T) {
	o := options{seeds: 9, engines: "tsx,fine", verbose: true}
	interrupted.Store(true)
	code, out, errOut := drive(t, o)
	interrupted.Store(false)
	if code != exitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitInterrupted, errOut)
	}
	if strings.Contains(out, "verify: OK") {
		t.Fatalf("interrupted run printed a verdict:\n%s", out)
	}
	if !strings.Contains(errOut, "0 seed(s) done and 9 to go; a rerun starts over") {
		t.Fatalf("stderr missing start-over hint:\n%s", errOut)
	}

	code, out, errOut = drive(t, o)
	if code != 0 || !strings.HasSuffix(out, "verify: OK\n") {
		t.Fatalf("rerun exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
