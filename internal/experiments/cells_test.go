package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/memo"
	"tsxhpc/internal/runner"
)

// TestCellTypesRoundTripThroughStore: the package's own memoized cell types
// come back from the persistent store DeepEqual, extremes included, so a
// warm run renders from exactly what the cold run computed.
func TestCellTypesRoundTripThroughStore(t *testing.T) {
	s, err := memo.OpenAt(t.TempDir(), "testfp")
	if err != nil {
		t.Fatal(err)
	}
	cases := []any{
		simCell{},
		simCell{Cycles: math.MaxUint64, Value: math.Inf(-1), Events: 1},
		simCell{Cycles: 12345, Value: math.Copysign(0, -1), Events: 678},
		modelAnatomyCell{},
		modelAnatomyCell{Starts: 9, Commits: 7, Fallbacks: 2, Aborts: [htm.NumCauses]uint64{1, 0, math.MaxUint64}, Cycles: 3, Events: 4},
	}
	for i, in := range cases {
		key := runner.Key(fmt.Sprintf("cell/%d", i))
		if err := s.Save(key, in); err != nil {
			t.Fatalf("Save(%+v): %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in))
		if st := s.Load(key, out.Interface()); st != runner.StoreHit {
			t.Fatalf("Load(%T) = %v, want hit", in, st)
		}
		got := out.Elem().Interface()
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("round trip mismatch:\nin  %#v\nout %#v", in, got)
		}
		if c, ok := in.(simCell); ok && math.Signbit(c.Value) != math.Signbit(got.(simCell).Value) {
			t.Fatalf("sign of %v lost: got %v", c.Value, got.(simCell).Value)
		}
	}
}
