package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Failure paths while a thread sits between Compute quanta.

// TestCycleBudgetInsideComputeQuantum: t0 runs long Compute calls while t1
// runs single-quantum ones, so t0's quanta fall due while t1 holds the
// core. The budget is crossed by one of t0's quanta, charged in place on
// t1's stack; the stall must still name t0 as the last running thread and
// dump every thread exactly as the engine did before quanta were charged
// in place.
func TestCycleBudgetInsideComputeQuantum(t *testing.T) {
	cfg := Config{Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1, MaxCycles: 48_100}
	m := New(cfg)
	raisedOn := -1 // the context whose stack the stall unwound
	_, err := m.RunE(4, func(c *Context) {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(*StallError); ok {
					raisedOn = c.ID()
				}
				panic(p)
			}
		}()
		switch c.ID() {
		case 0:
			for {
				c.Compute(10_000)
			}
		case 1:
			for {
				c.Compute(7)
			}
		case 2:
			c.Block() // never woken: blocked in the dump
		}
		// t3 finishes at once: done in the dump
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	const want = "sim: virtual-cycle budget of 48100 exceeded (last running t0)\n" +
		"t0(core 0): state=runnable clock=48160 intxn=false\n" +
		"t1(core 1): state=runnable clock=48006 intxn=false\n" +
		"t2(core 2): state=blocked clock=0 intxn=false\n" +
		"t3(core 3): state=done clock=0 intxn=false"
	if se.Kind != StallCycleBudget || se.LastRunning != 0 || se.Error() != want {
		t.Fatalf("stall = %q\nwant %q", se.Error(), want)
	}
	if raisedOn != 1 {
		t.Fatalf("stall raised on t%d's stack, want t1's: the quantum was not charged in place", raisedOn)
	}
}

// TestFatalPanicWithPendingQuanta: a body panics while another thread is
// parked partway through a long Compute. Every survivor must unwind once,
// no carrier goroutine may leak, and the machine must run the next region
// exactly like a fresh one.
func TestFatalPanicWithPendingQuanta(t *testing.T) {
	cfg := Config{Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1}
	before := runtime.NumGoroutine()
	m := New(cfg)
	boom := errors.New("boom")
	unwound := map[int]int{}
	var pending uint64 // t0's uncharged Compute cycles when t1 panics
	func() {
		defer func() {
			if p := recover(); p != boom {
				t.Fatalf("recovered %v, want the original panic value", p)
			}
		}()
		m.Run(5, func(c *Context) {
			defer func() { unwound[c.ID()]++ }()
			switch c.ID() {
			case 0:
				for {
					c.Compute(10_000)
				}
			case 1:
				for c.Now() < 30_000 {
					c.Compute(7)
				}
				pending = m.ctxs[0].computeLeft
				panic(boom)
			case 2:
				c.Block()
			default:
				for {
					c.Compute(400)
				}
			}
		})
		t.Fatal("Run returned instead of re-panicking")
	}()
	if pending == 0 {
		t.Fatal("t0 had no Compute quanta pending when t1 panicked")
	}
	for id := 0; id < 5; id++ {
		if unwound[id] != 1 {
			t.Fatalf("context %d unwound %d times, want 1", id, unwound[id])
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked after poison unwind: %d > %d", n, before)
	}

	// Result.Events counts over the machine's lifetime, so only the
	// clocks are compared.
	next := func(m *Machine) []uint64 {
		return m.Run(6, func(c *Context) {
			for i := 0; i < 20; i++ {
				c.Compute(uint64(100 + 97*c.ID() + 13*i))
			}
		}).PerThread
	}
	if got, want := next(m), next(New(cfg)); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused machine ran differently:\n got %+v\nwant %+v", got, want)
	}
}
