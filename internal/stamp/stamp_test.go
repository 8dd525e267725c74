package stamp

import (
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/tm"
)

// TestAllWorkloadsValidateUnderAllModes is the suite's core correctness
// gate: every workload must produce a valid result under every execution
// scheme at a contended thread count. Execute returns an error whenever a
// workload's own invariants fail.
func TestAllWorkloadsValidateUnderAllModes(t *testing.T) {
	for _, name := range Names() {
		for _, mode := range []tm.Mode{tm.SGL, tm.TL2, tm.TSX} {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				if _, err := Execute(name, mode, 4); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestAllWorkloadsValidateAt8Threads(t *testing.T) {
	for _, name := range Names() {
		if _, err := Execute(name, tm.TSX, 8); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleThreadAllModes(t *testing.T) {
	for _, name := range Names() {
		for _, mode := range []tm.Mode{tm.SGL, tm.TL2, tm.TSX} {
			if _, err := Execute(name, mode, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestExecuteUnknownWorkload(t *testing.T) {
	if _, err := Execute("nope", tm.SGL, 1); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Execute("intruder", tm.TSX, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute("intruder", tm.TSX, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.AbortRate != b.AbortRate {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	ns := Names()
	if len(ns) != 8 {
		t.Fatalf("expected 8 STAMP workloads, got %d", len(ns))
	}
	want := []string{"bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada"}
	for i, n := range want {
		if ns[i] != n {
			t.Fatalf("Names() = %v", ns)
		}
	}
}

// TestLowContentionReducesAborts checks the suite's contention knob: the
// low-contention inputs of kmeans and vacation must produce clearly lower
// tsx abort rates than the paper's high-contention default.
func TestLowContentionReducesAborts(t *testing.T) {
	for _, name := range []string{"kmeans", "vacation"} {
		high, err := ExecuteContention(name, tm.TSX, 4, HighContention)
		if err != nil {
			t.Fatal(err)
		}
		low, err := ExecuteContention(name, tm.TSX, 4, LowContention)
		if err != nil {
			t.Fatal(err)
		}
		if low.AbortRate >= high.AbortRate {
			t.Errorf("%s: low-contention aborts %.0f%% >= high-contention %.0f%%",
				name, low.AbortRate, high.AbortRate)
		}
	}
}

// TestContentionDefaultMatchesHigh ensures Execute keeps the paper's
// configuration.
func TestContentionDefaultMatchesHigh(t *testing.T) {
	a, err := Execute("kmeans", tm.TSX, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteContention("kmeans", tm.TSX, 2, HighContention)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("default (%d) != high contention (%d)", a.Cycles, b.Cycles)
	}
}

// TestAbortCauseAttribution checks the perf-style breakdown: labyrinth's
// aborts are dominated by capacity (the unannotated grid snapshot), while
// intruder's are dominated by conflicts (the contended queues).
func TestAbortCauseAttribution(t *testing.T) {
	lab, err := Execute("labyrinth", tm.TSX, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lab.AbortCauses[htm.Capacity] == 0 {
		t.Errorf("labyrinth: no capacity aborts recorded: %v", lab.AbortCauses)
	}
	if lab.AbortCauses[htm.Capacity] < lab.AbortCauses[htm.Conflict] {
		t.Errorf("labyrinth 1T: capacity (%d) should dominate conflicts (%d)",
			lab.AbortCauses[htm.Capacity], lab.AbortCauses[htm.Conflict])
	}
	intr, err := Execute("intruder", tm.TSX, 8)
	if err != nil {
		t.Fatal(err)
	}
	if intr.AbortCauses[htm.Conflict] < intr.AbortCauses[htm.Capacity] {
		t.Errorf("intruder 8T: conflicts (%d) should dominate capacity (%d)",
			intr.AbortCauses[htm.Conflict], intr.AbortCauses[htm.Capacity])
	}
}
