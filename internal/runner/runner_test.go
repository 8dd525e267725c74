package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tsxhpc/internal/sim"
)

// TestMemoization is the run-at-most-once guarantee: many submissions of one
// key execute the job exactly once and all observe the same result.
func TestMemoization(t *testing.T) {
	e := New(4)
	var runs atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Do(e, "cell", func() (int, error) {
				runs.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("job ran %d times, want 1", got)
	}
	st := e.Stats()
	if st.Executed != 1 || st.Deduped != 31 {
		t.Fatalf("stats = %+v, want Executed=1 Deduped=31", st)
	}
}

// TestDistinctKeysAllRun checks fan-out: distinct cells each execute once and
// return their own results regardless of submission order.
func TestDistinctKeysAllRun(t *testing.T) {
	e := New(3)
	var futs []Future[int]
	for i := 0; i < 20; i++ {
		i := i
		futs = append(futs, Submit(e, Key(fmt.Sprintf("cell/%d", i)), func() (int, error) {
			return i * i, nil
		}))
	}
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil || v != i*i {
			t.Fatalf("cell %d = %v, %v; want %d", i, v, err, i*i)
		}
	}
	if st := e.Stats(); st.Executed != 20 {
		t.Fatalf("Executed = %d, want 20", st.Executed)
	}
}

// TestWorkerBound verifies the pool never runs more than `workers` jobs at
// the same host instant.
func TestWorkerBound(t *testing.T) {
	const workers = 2
	e := New(workers)
	var cur, max atomic.Int64
	var futs []Future[struct{}]
	gate := make(chan struct{})
	for i := 0; i < 10; i++ {
		futs = append(futs, Submit(e, Key(fmt.Sprintf("j%d", i)), func() (struct{}, error) {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			<-gate
			cur.Add(-1)
			return struct{}{}, nil
		}))
	}
	close(gate)
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent jobs, worker bound is %d", m, workers)
	}
}

// TestErrorsAndPanicsPropagate checks that a job error reaches every waiter
// and that a panicking job is converted to an error instead of killing the
// process.
func TestErrorsAndPanicsPropagate(t *testing.T) {
	e := New(1)
	boom := errors.New("boom")
	f1 := Submit(e, "bad", func() (int, error) { return 0, boom })
	f2 := Submit(e, "bad", func() (int, error) { return 0, nil })
	if _, err := f1.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := f2.Wait(); !errors.Is(err, boom) {
		t.Fatalf("dedup err = %v, want boom", err)
	}
	if _, err := Do(e, "panics", func() (int, error) { panic("sim deadlock") }); err == nil {
		t.Fatal("panicking job returned nil error")
	}
}

// TestStallContainment is the graceful-degradation contract: of eight
// submitted experiment jobs, one drives its simulated machine into a real
// deadlock (threads blocked with no waker). That job's future must fail with
// an error chain reaching the typed *sim.StallError — thread-state dump and
// all — while the other seven complete normally and collect in fixed
// submission order.
func TestStallContainment(t *testing.T) {
	e := New(4)
	var futs []Future[int]
	for i := 0; i < 8; i++ {
		i := i
		futs = append(futs, Submit(e, Key(fmt.Sprintf("exp/%d", i)), func() (int, error) {
			if i == 3 {
				m := sim.New(sim.DefaultConfig())
				m.Run(2, func(c *sim.Context) {
					c.Block() // nobody ever wakes anybody: deadlock
				})
			}
			return i * 10, nil
		}))
	}
	var got []int
	var jobErr error
	for i, f := range futs {
		v, err := f.Wait()
		if i == 3 {
			jobErr = err
			continue
		}
		if err != nil {
			t.Fatalf("healthy job %d failed: %v", i, err)
		}
		got = append(got, v)
	}
	want := []int{0, 10, 20, 40, 50, 60, 70}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fixed-order results = %v, want %v", got, want)
		}
	}
	if jobErr == nil {
		t.Fatal("deadlocked job returned nil error")
	}
	var stall *sim.StallError
	if !errors.As(jobErr, &stall) {
		t.Fatalf("error chain does not reach *sim.StallError: %v", jobErr)
	}
	if stall.Kind != sim.StallDeadlock || len(stall.Threads) != 2 {
		t.Fatalf("stall = kind %v with %d thread states, want deadlock with 2", stall.Kind, len(stall.Threads))
	}
	if !strings.Contains(jobErr.Error(), "state=blocked") {
		t.Fatalf("thread-state dump missing from contained error: %v", jobErr)
	}
}

type evented struct{ n uint64 }

func (e evented) SimEvents() uint64 { return e.n }

// TestEventAccounting checks that results implementing Eventer contribute to
// the engine's aggregate event count exactly once each.
func TestEventAccounting(t *testing.T) {
	e := New(2)
	for i := 0; i < 3; i++ {
		if _, err := Do(e, Key(fmt.Sprintf("ev/%d", i)), func() (evented, error) {
			return evented{n: 100}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-submitting must not double count.
	if _, err := Do(e, "ev/0", func() (evented, error) { return evented{n: 100}, nil }); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Events != 300 {
		t.Fatalf("Events = %d, want 300", st.Events)
	}
}

// TestConflictingResultType checks the typed-future guard: reusing a key
// under a different result type yields an error, not a panic, and the error
// names the type the key's result was stored as, whether the job ran or was
// a store hit.
func TestConflictingResultType(t *testing.T) {
	st := newFakeStore()
	st.entries["hit"] = 7
	e := New(1)
	e.SetStore(st)
	for _, key := range []Key{"ran", "hit"} {
		if _, err := Do(e, key, func() (int, error) { return 7, nil }); err != nil {
			t.Fatal(err)
		}
		_, err := Do(e, key, func() (string, error) { return "x", nil })
		if err == nil {
			t.Fatalf("%s: conflicting type reuse returned nil error", key)
		}
		if want := "conflicting result type int"; !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%s: err = %q, want it to end %q", key, err, want)
		}
	}
}
