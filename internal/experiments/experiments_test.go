package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The full experiment sweeps run in cmd/reproduce and the root benchmarks;
// these tests cover the fast experiments end-to-end and spot-check the
// rendered output of the sweeping ones via their building blocks.

// shared is the suite the single-experiment tests run on, so cells common
// to several of them simulate once per test binary.
var shared = NewSuite(0)

func TestFigure1RendersAllSchemes(t *testing.T) {
	fig, err := shared.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Render()
	for _, want := range []string{"Small Atomic", "Small Critical", "Large Critical", "Small TM", "Large TM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure1 missing series %q:\n%s", want, out)
		}
	}
	if len(fig.Series) != 5 || len(fig.Series[0].Y) != len(fig.XTicks) {
		t.Fatalf("Figure1 malformed: %d series, %d ticks", len(fig.Series), len(fig.XTicks))
	}
}

func TestRetrySweepShape(t *testing.T) {
	fig, err := shared.RetrySweep([]int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	ys := fig.Series[0].Y
	if len(ys) != 2 || ys[0] <= 0 || ys[1] <= 0 {
		t.Fatalf("retry sweep malformed: %v", ys)
	}
}

func TestHTCapacityAblationMonotone(t *testing.T) {
	tab, err := shared.HTCapacityAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// 8T (HyperThreaded) must abort more than 4T.
	r4, r8 := cellFloat(t, tab.Rows[2][1]), cellFloat(t, tab.Rows[3][1])
	if r8 <= r4 && r8 != 100 {
		t.Fatalf("HT did not compound capacity: 4T=%v%% 8T=%v%%", r4, r8)
	}
}

// cellFloat parses one rendered table cell as a number.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestConflictWiringAblationRises(t *testing.T) {
	fig, err := shared.ConflictWiringAblation()
	if err != nil {
		t.Fatal(err)
	}
	ys := fig.Series[0].Y
	if ys[0] > 2 {
		t.Fatalf("0%% cross wiring should give ~0 aborts, got %v", ys[0])
	}
	if ys[len(ys)-1] < 20 {
		t.Fatalf("80%% cross wiring should give substantial aborts, got %v", ys[len(ys)-1])
	}
	for i := 1; i < len(ys); i++ {
		if ys[i]+5 < ys[i-1] {
			t.Fatalf("abort rate not rising with conflicts: %v", ys)
		}
	}
}

func TestLocksetAblationElisionWins(t *testing.T) {
	tab, err := shared.LocksetAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	// Two lock acquisitions per critical section must cost more than one
	// transactional begin.
	if pair, elide := cellFloat(t, tab.Rows[0][1]), cellFloat(t, tab.Rows[1][1]); pair <= elide {
		t.Fatalf("lockset elision (%v cycles/op) does not beat two locks (%v)", elide, pair)
	}
}

func TestAdaptiveCoarseningAblation(t *testing.T) {
	tab, err := shared.AdaptiveCoarseningAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Rows[0]) != 5 {
		t.Fatalf("malformed table: %v", tab.Rows)
	}
}

// TestCellsSimulateAtMostOnce asserts the memoization contract of the job
// engine: a simulation cell (workload, mode, threads, config) runs at most
// once per Suite no matter how many experiments reference it. Figure 2 and
// Table 1 draw on the same STAMP cells, so after Figure 2 has run, Table 1
// must not execute a single new STAMP job for the shared cells, and
// re-rendering either experiment must execute nothing at all.
func TestCellsSimulateAtMostOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full STAMP sweep; skipped with -short")
	}
	s := NewSuite(0)
	if _, err := s.Figure2(); err != nil {
		t.Fatal(err)
	}
	afterFig2 := s.E.Stats()
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	afterTab1 := s.E.Stats()
	if afterTab1.Executed != afterFig2.Executed {
		t.Fatalf("Table1 re-simulated %d cells already run for Figure2",
			afterTab1.Executed-afterFig2.Executed)
	}
	if afterTab1.Deduped == afterFig2.Deduped {
		t.Fatalf("Table1 did not hit the memo cache at all (deduped stuck at %d)", afterTab1.Deduped)
	}
	// Rendering the same experiments again must be fully served from cache.
	if _, err := s.Figure2(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if again := s.E.Stats(); again.Executed != afterTab1.Executed {
		t.Fatalf("re-render executed %d new jobs", again.Executed-afterTab1.Executed)
	}
}

// TestRenderedOutputIndependentOfParallelism asserts the engine's core
// guarantee: rendered experiment output is byte-identical at any host
// parallelism level, because every job owns a private simulated machine and
// results are collected in a fixed order. A representative subset keeps the
// test fast; cmd/reproduce covers the full catalog.
func TestRenderedOutputIndependentOfParallelism(t *testing.T) {
	render := func(s *Suite) string {
		var b strings.Builder
		f1, err := s.Figure1()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(f1.Render())
		f5b, err := s.Figure5b()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(f5b.Render())
		rs, err := s.RetrySweep([]int{1, 4})
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(rs.Render())
		return b.String()
	}
	serial := render(NewSuite(1))
	parallel := render(NewSuite(8))
	if serial != parallel {
		t.Fatalf("output differs between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestAbortAnatomyDeterministicAcrossParallelism is the tentpole determinism
// guarantee: the anatomy report (probe counters, histograms, virtual-time
// phases) is byte-identical whether its cells ran on one host worker or
// raced across eight.
func TestAbortAnatomyDeterministicAcrossParallelism(t *testing.T) {
	serial, err := NewSuite(1).AbortAnatomy()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewSuite(8).AbortAnatomy()
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("anatomy report differs across host parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	for _, want := range []string{"tsx abort causes", "tl2 validation failures", "virtual-time phases", "intruder", "kmeans", "vacation"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("anatomy report missing %q:\n%s", want, serial)
		}
	}
}
