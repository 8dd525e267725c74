package netapps

import (
	"testing"

	"tsxhpc/internal/core"
)

// TestAllAppsAllModesValidate is the correctness gate: every workload
// delivers every byte in order under every locking-module implementation
// (Run validates stream integrity internally).
func TestAllAppsAllModesValidate(t *testing.T) {
	for _, name := range Names() {
		for _, mode := range Modes {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				if _, err := Run(name, mode); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := Run("nope", core.ModeMutex); err == nil {
		t.Fatal("expected error")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run("netferret", core.ModeTSXCond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("netferret", core.ModeTSXCond)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.ReadCycles != b.ReadCycles {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestBandwidthMetric(t *testing.T) {
	r := Result{Bytes: 4000, ReadCycles: 2000}
	if got := r.Bandwidth(); got != 2000 {
		t.Fatalf("Bandwidth = %v", got)
	}
	if (Result{}).Bandwidth() != 0 {
		t.Fatal("zero Result should have 0 bandwidth")
	}
}
