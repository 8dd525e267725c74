package rmstm

import (
	"testing"
)

// TestAllWorkloadsValidateUnderAllSchemes is the correctness gate: every
// workload computes exactly the same result under fine-grained locks, a
// single global lock, and TSX elision.
func TestAllWorkloadsValidateUnderAllSchemes(t *testing.T) {
	for _, name := range Names() {
		for _, s := range Schemes {
			name, s := name, s
			t.Run(name+"/"+s.String(), func(t *testing.T) {
				if _, err := Execute(name, s, 4, DefaultLocks); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestAllWorkloads8Threads(t *testing.T) {
	for _, name := range Names() {
		if _, err := Execute(name, TSXScheme, 8, DefaultLocks); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Execute("nope", FGL, 1, DefaultLocks); err == nil {
		t.Fatal("expected error")
	}
}

func TestSchemeStrings(t *testing.T) {
	if FGL.String() != "fgl" || SGLScheme.String() != "sgl" || TSXScheme.String() != "tsx" {
		t.Fatal("scheme names wrong")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Execute("fluidanimate", TSXScheme, 8, DefaultLocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute("fluidanimate", TSXScheme, 8, DefaultLocks)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}
