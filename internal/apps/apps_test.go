package apps

import (
	"testing"
)

// TestAllVariantsValidate is the correctness gate: every variant of every
// workload computes the exact expected result (each workload validates
// internally) at a contended thread count.
func TestAllVariantsValidate(t *testing.T) {
	for _, name := range Names() {
		w := Registry[name]()
		for _, v := range w.Variants() {
			name, v := name, v
			t.Run(name+"/"+v, func(t *testing.T) {
				if _, err := Run(name, v, 4); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestFigureVariantsAt8Threads(t *testing.T) {
	for _, name := range Names() {
		for _, v := range FigureVariants {
			if _, err := Run(name, v, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSingleThread(t *testing.T) {
	for _, name := range Names() {
		for _, v := range FigureVariants {
			if _, err := Run(name, v, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestUnknownWorkloadAndVariant(t *testing.T) {
	if _, err := Run("nope", "baseline", 1); err == nil {
		t.Fatal("expected unknown-workload error")
	}
	if _, err := Run("histogram", "nope", 1); err == nil {
		t.Fatal("expected unknown-variant error")
	}
}

func TestGranOf(t *testing.T) {
	if g, ok := granOf("tsx.gran8"); !ok || g != 8 {
		t.Fatalf("granOf(tsx.gran8) = %d,%v", g, ok)
	}
	for _, bad := range []string{"baseline", "tsx.granx", "tsx.gran0", "tsx.gran-1"} {
		if _, ok := granOf(bad); ok {
			t.Errorf("granOf(%q) parsed", bad)
		}
	}
}

func TestNamesMatchesTable2(t *testing.T) {
	want := []string{"graphCluster", "ua", "physicsSolver", "nufft", "histogram", "canneal"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v", got)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run("nufft", "tsx.coarsen", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("nufft", "tsx.coarsen", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}
