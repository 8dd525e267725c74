package main

import (
	"io"
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {25, 3.25}, {75, 7.75}, {100, 10},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("percentile of one sample = %g, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := iqrPct(xs); !near(got, 100*(7.75-3.25)/5.5) {
		t.Errorf("iqrPct(1..10) = %g", got)
	}
	if got := beyond(xs, percentile(xs, 90)); got != 1 {
		t.Errorf("beyond p90 of 1..10 = %d, want 1", got)
	}
}

func TestRefRatio(t *testing.T) {
	if got := refRatio(100, 40, 60); !near(got, 2) {
		t.Errorf("refRatio(100, 40, 60) = %g, want 2", got)
	}
	if got := perMillion(6, 3_000_000); !near(got, 2) {
		t.Errorf("perMillion(6, 3M) = %g, want 2", got)
	}
	if got := perMillion(6, 0); got != 0 {
		t.Errorf("perMillion with no events = %g, want 0", got)
	}
	ops := []opRecord{
		{ns: 20, refBefore: 10, refAfter: 10, events: 1e6},
		{ns: 60, refBefore: 10, refAfter: 30, events: 1e6},
		{ns: 90, refBefore: 30, refAfter: 30, events: 1e6, traced: true},
		{ns: 1e9, refBefore: 1, refAfter: 1, events: 1e6, failed: true},
	}
	u := summarize(ops, func(o opRecord) bool { return !o.traced })
	if u.n != 2 || u.events != 2e6 || !near(u.refPerMevent, 2.5) || !near(u.refP50, 2.5) {
		t.Errorf("untraced summary = %+v, want 2 ops, 2M events, 2.5 ref/Mevent, p50 2.5", u)
	}
	if tr := summarize(ops, func(o opRecord) bool { return o.traced }); tr.n != 1 || !near(tr.refPerMevent, 3) {
		t.Errorf("traced summary = %+v, want 1 op at 3 ref/Mevent", tr)
	}
	// A host running the kernel at twice refNominal halves the raw median
	// set-up of 2 s.
	r := &run{setups: []float64{1, 3, 2}, refs: []float64{9e6, 9e6, 1e6}}
	if got := setupSeconds(r); !near(got, 1) {
		t.Errorf("setupSeconds = %g, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{op: 0}
	tr.spans = []span{
		{name: "op", start: 0, end: 100},
		{name: "a", start: 10, end: 40, parent: 1},
		{name: "b", start: 30, end: 60, parent: 1},  // overlaps a: the union counts once
		{name: "c", start: 90, end: 130, parent: 1}, // runs past its parent
		{name: "open", start: 5, end: -1, parent: 1},
	}
	lt := tr.byName(func(span) bool { return true })
	if got := lt["op"]; got.dur[0] != 100 || got.self[0] != 100-50-10 {
		t.Errorf("op dur %v self %v, want 100 and 40", got.dur, got.self)
	}
	if _, ok := lt["open"]; ok {
		t.Error("a span never closed was reported")
	}
}

func TestOpPanicFails(t *testing.T) {
	o := op{run: func(int32) (outcome, error) { panic("boom") }}
	if _, err := o.guarded(0); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("a panicking op returned %v, want its panic as the error", err)
	}
}

func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(5, func() { k.run() }); n != 0 {
		t.Errorf("reference kernel allocates %v times a run, want 0", n)
	}
}

// TestWorkloadSmoke sets each workload up and runs its first op untraced
// and traced: both must pass the workload's validation and leave the spans
// the per-layer metrics are computed from.
func TestWorkloadSmoke(t *testing.T) {
	want := map[string][]string{
		"stamp-8t":   {"runner.Do", "memo.Load", "memo.Save", "sim.NewE", "tm.NewSystem", "stamp.Setup", "sim.Run", "stamp.Validate"},
		"net-scale":  {"runner.Do", "memo.Load", "memo.Save", "netapps.RunScale"},
		"warm-serve": {"runopts.Setup", "experiments.section", "memo.Load"},
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "warm-serve" {
				t.Skip("cold fill takes seconds")
			}
			b := newBench(1, t.TempDir())
			defer b.close()
			if err := w.setup(b); err != nil {
				t.Fatal(err)
			}
			first := w.pass(b, 0)[0]
			out, err := first.run(0)
			if err != nil {
				t.Fatal(err)
			}
			if out.events == 0 {
				t.Error("op reports no simulated events")
			}
			if name == "warm-serve" {
				if out.executed != 0 || out.hits == 0 {
					t.Errorf("warm serve executed %d, hit %d; want 0 and all", out.executed, out.hits)
				}
			} else if out.executed != 1 || out.hits != 0 {
				t.Errorf("cell executed %d, hit %d; want 1 and 0", out.executed, out.hits)
			}

			b.tr = newTracer()
			b.useStore()
			again := w.pass(b, 1)[0]
			if again.before != nil {
				again.before()
			}
			if _, err := again.run(b.tr.begin("op", again.name, 0)); err != nil {
				t.Fatal(err)
			}
			got := b.tr.byName(func(span) bool { return true })
			for _, n := range want[name] {
				if got[n] == nil {
					t.Errorf("traced op recorded no %s span", n)
				}
			}
		})
	}
}

func TestUsage(t *testing.T) {
	var errb strings.Builder
	if code := mainErr([]string{"--workload", "nope"}, io.Discard, &errb); code != 2 {
		t.Errorf("unknown workload exits %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "stamp-8t") {
		t.Errorf("usage error does not list the workloads: %q", errb.String())
	}
}
