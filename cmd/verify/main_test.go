package main

import (
	"strings"
	"testing"

	"tsxhpc/internal/runopts"
)

// drive runs the tool in-process.
func drive(t *testing.T, o options) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(o, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestVerifyCleanSweep: a seed sweep across all engines agrees, prints the
// zero-violations summary, and exits 0.
func TestVerifyCleanSweep(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 6
	}
	code, out, errOut := drive(t, options{seeds: n, engines: "tsx,tl2,coarse,fine"})
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "0 divergences, 0 serializability violations, 0 invariant violations, 0 failures") {
		t.Fatalf("missing clean summary:\n%s", out)
	}
	if !strings.Contains(out, "verify: OK") {
		t.Fatalf("missing OK footer:\n%s", out)
	}
}

// TestVerifyDeterministicOutput: same flags, same bytes — independent of the
// host worker count (results are reported in seed order).
func TestVerifyDeterministicOutput(t *testing.T) {
	do := func(parallel int) string {
		o := options{seeds: 8, engines: "tsx,tl2,coarse,fine", verbose: true}
		o.Parallel = parallel
		code, out, errOut := drive(t, o)
		if code != 0 {
			t.Fatalf("exit = %d: %s%s", code, out, errOut)
		}
		return out
	}
	a := do(1)
	b := do(8)
	if a != b {
		t.Fatalf("-parallel changed the output:\n%s\n---\n%s", a, b)
	}
}

// TestVerifyChaosDeterministic: under -chaos the sweep still agrees and
// stays byte-deterministic per seed.
func TestVerifyChaosDeterministic(t *testing.T) {
	do := func() string {
		o := options{seeds: 5, engines: "tsx,tl2,coarse,fine", verbose: true}
		o.ChaosSet = true
		o.ChaosSeed = 1
		code, out, errOut := drive(t, o)
		if code != 0 {
			t.Fatalf("exit = %d: %s%s", code, out, errOut)
		}
		return out
	}
	a := do()
	if !strings.Contains(a, "chaos: fault injection enabled (seed 1)") {
		t.Fatalf("missing chaos banner:\n%s", a)
	}
	if a != do() {
		t.Fatal("same chaos seed produced different output")
	}
}

// TestVerifyUsageErrors: bad flag values are usage errors — exit 2, message
// on stderr naming the valid values, nothing on stdout.
func TestVerifyUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		o    options
		want string
	}{
		{"bad engine", options{seeds: 5, engines: "tsx,hle"}, `unknown engine "hle" (valid: tsx, tl2, coarse, fine)`},
		{"no engines", options{seeds: 5, engines: ","}, "no engines selected"},
		{"zero seeds", options{seeds: 0, engines: "tsx"}, "-seeds must be positive"},
		{"metrics", options{seeds: 5, engines: "tsx", Options: runopts.Options{Metrics: true}}, "-metrics, -metricsout and -trace are not supported"},
		{"trace", options{seeds: 5, engines: "tsx", Options: runopts.Options{TracePath: "t.json"}}, "-metrics, -metricsout and -trace are not supported"},
		{"cache", options{seeds: 5, engines: "tsx", Options: runopts.Options{Cache: "memo", CacheSet: true}}, "-cache is not supported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := drive(t, tc.o)
			if code != 2 {
				t.Fatalf("exit = %d, want 2", code)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Fatalf("stderr %q does not mention %q", errOut, tc.want)
			}
			if out != "" {
				t.Fatalf("usage error wrote to stdout: %q", out)
			}
		})
	}
}

// TestVerifySingleEngine: a one-engine run still checks serializability
// (the per-engine oracle needs no second engine to compare against).
func TestVerifySingleEngine(t *testing.T) {
	o := options{seeds: 4, engines: "fine"}
	o.Options = runopts.Options{Parallel: 2}
	code, out, _ := drive(t, o)
	if code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "4 seeds x fine:") {
		t.Fatalf("summary missing engine list:\n%s", out)
	}
}
