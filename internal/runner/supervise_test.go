package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tsxhpc/internal/sim"
)

// TestDeterministicQuarantine: a failing cell runs once — rerunning a pure
// function of the cell reproduces the failure — and lands in quarantine
// while the engine keeps serving other jobs.
func TestDeterministicQuarantine(t *testing.T) {
	e := New(2)
	bad := errors.New("validation failed")
	runs := 0
	_, err := Do(e, "cell/bad", func() (int, error) { runs++; return 0, bad })
	if !errors.Is(err, bad) || runs != 1 {
		t.Fatalf("Do = %v after %d runs, want the job's own error after 1 run", err, runs)
	}
	if v, err := Do(e, "cell/good", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("healthy job after quarantine: %d, %v", v, err)
	}
	if st := e.Stats(); st.Quarantined != 1 || st.Executed != 2 {
		t.Fatalf("stats = %+v, want 1 quarantined, 2 executed", st)
	}
	if q := e.Quarantined(); len(q) != 1 || q[0] != "cell/bad" {
		t.Fatalf("quarantined = %v", q)
	}
}

// TestFailuresContainedAndQuarantined covers the ways a cell fails: an error
// panic and a non-error panic are each contained once into one failed
// future, an injected failure fires before the store probe, so a poisoned
// key fails even when the store holds a verified entry for it, and a panic
// in Store.Load, which runs on the submitting goroutine, fails only its own
// job. Every case is listed by Quarantined.
func TestFailuresContainedAndQuarantined(t *testing.T) {
	t.Run("error panic", func(t *testing.T) {
		e := New(1)
		runs := 0
		_, err := Do(e, "cell/stall", func() (int, error) {
			runs++
			panic(&sim.StallError{Kind: sim.StallCycleBudget, Limit: 99})
		})
		var se *sim.StallError
		if !errors.As(err, &se) || se.Limit != 99 {
			t.Fatalf("typed stall cause lost: %v", err)
		}
		if !strings.Contains(err.Error(), `runner: job "cell/stall" panicked: sim:`) || strings.Count(err.Error(), "panicked") != 1 {
			t.Fatalf("err = %v, want one containment wrapper", err)
		}
		if q := e.Quarantined(); runs != 1 || !reflect.DeepEqual(q, []Key{"cell/stall"}) {
			t.Fatalf("runs = %d, quarantined = %v", runs, q)
		}
	})
	t.Run("non-error panic", func(t *testing.T) {
		e := New(1)
		runs := 0
		_, err := Do(e, "cell/panic", func() (int, error) { runs++; panic("untyped boom") })
		if err == nil || err.Error() != `runner: job "cell/panic" panicked: untyped boom` {
			t.Fatalf("err = %v", err)
		}
		if q := e.Quarantined(); runs != 1 || !reflect.DeepEqual(q, []Key{"cell/panic"}) {
			t.Fatalf("runs = %d, quarantined = %v", runs, q)
		}
	})
	t.Run("poison beats store hit", func(t *testing.T) {
		st := newFakeStore()
		st.entries["cell/poisoned"] = 5
		st.entries["cell/clean"] = 6
		e := New(1)
		e.SetStore(st)
		poisoned := errors.New("poisoned")
		e.SetInject(func(k Key) error {
			if k == "cell/poisoned" {
				return poisoned
			}
			return nil
		})
		fn := func() (int, error) {
			t.Error("job function ran")
			return 0, nil
		}
		if _, err := Do(e, "cell/poisoned", fn); !errors.Is(err, poisoned) {
			t.Fatalf("poisoned cell: %v", err)
		}
		if v, err := Do(e, "cell/clean", fn); err != nil || v != 6 {
			t.Fatalf("clean cell: %d, %v", v, err)
		}
		s := e.Stats()
		if s.CacheHits != 1 || s.Executed != 0 || s.Quarantined != 1 {
			t.Fatalf("stats = %+v, want 1 hit (the clean cell only), 0 executed, 1 quarantined", s)
		}
		if q := e.Quarantined(); !reflect.DeepEqual(q, []Key{"cell/poisoned"}) {
			t.Fatalf("quarantined = %v", q)
		}
	})
	t.Run("store load panic", func(t *testing.T) {
		st := newFakeStore()
		st.panicKey = "cell/1"
		e := New(2)
		e.SetStore(st)
		futs := make([]Future[int], 3)
		for i := range futs {
			futs[i] = Submit(e, Key(fmt.Sprintf("cell/%d", i)), func() (int, error) { return i, nil })
		}
		for i, f := range futs {
			v, err := f.Wait()
			if i == 1 {
				if err == nil || err.Error() != `runner: job "cell/1" panicked: corrupt index` {
					t.Fatalf("cell/1 err = %v, want the contained Load panic", err)
				}
				continue
			}
			if err != nil || v != i {
				t.Fatalf("cell/%d = %v, %v", i, v, err)
			}
		}
		if q := e.Quarantined(); !reflect.DeepEqual(q, []Key{"cell/1"}) {
			t.Fatalf("quarantined = %v", q)
		}
		if s := e.Stats(); s.Executed != 2 || s.CacheMisses != 2 {
			t.Fatalf("stats = %+v, want 2 executed, 2 misses", s)
		}
	})
}

// TestSupervisionDeterministicAcrossParallelism is the scheduling contract:
// which cells fail, with what error, and the quarantine list are identical
// at -parallel 1 and -parallel 8.
func TestSupervisionDeterministicAcrossParallelism(t *testing.T) {
	run := func(workers int) ([]Key, []string) {
		e := New(workers)
		e.SetInject(func(k Key) error {
			if strings.HasSuffix(string(k), "5") {
				return fmt.Errorf("injected failure for %s", k)
			}
			return nil
		})
		futs := make([]Future[int], 20)
		for i := range futs {
			futs[i] = Submit(e, Key(fmt.Sprintf("cell/%d", i)), func() (int, error) {
				if i == 12 {
					panic("boom")
				}
				return i, nil
			})
		}
		var errs []string
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				errs = append(errs, err.Error())
			}
		}
		return e.Quarantined(), errs
	}
	q1, errs1 := run(1)
	q8, errs8 := run(8)
	if !reflect.DeepEqual(q1, q8) || !reflect.DeepEqual(errs1, errs8) {
		t.Fatalf("supervision outcome depends on parallelism:\nserial:   %v %q\nparallel: %v %q", q1, errs1, q8, errs8)
	}
	if want := []Key{"cell/12", "cell/15", "cell/5"}; !reflect.DeepEqual(q1, want) {
		t.Fatalf("quarantined = %v, want %v", q1, want)
	}
}
