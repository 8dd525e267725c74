package sim

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Failure paths while a queued spinner's SpinOn probe steps are taken in
// place. The pinned stall messages were taken before spin waits ran in
// place, when every probe step was taken on the spinner's own stack.

// raisedOn records, in *id, the thread whose stack a StallError unwound.
func raisedOn(c *Context, id *int) {
	if p := recover(); p != nil {
		if _, ok := p.(*StallError); ok {
			*id = c.ID()
		}
		panic(p)
	}
}

// TestCycleBudgetInsideSpinProbe: t1 CAS-spins on a word that stays set
// while t2 runs single-quantum Computes, so t1's probe steps fall due while
// t2 holds the core. The budget is crossed by one of t1's steps, taken in
// place on t2's stack; the stall must still name t1 as the last running
// thread and dump every thread as before.
func TestCycleBudgetInsideSpinProbe(t *testing.T) {
	m := New(Config{Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1, MaxCycles: 30_001})
	word := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(word, 1)
	stack := -1
	_, err := m.RunE(4, func(c *Context) {
		defer raisedOn(c, &stack)
		switch c.ID() {
		case 0:
			c.Block() // never woken: blocked in the dump
		case 1:
			c.SpinOn(word, true, 6, math.MaxInt)
		case 2:
			for {
				c.Compute(7)
			}
		}
		// t3 finishes at once: done in the dump
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	const want = "sim: virtual-cycle budget of 30001 exceeded (last running t1)\n" +
		"t0(core 0): state=blocked clock=0 intxn=false\n" +
		"t1(core 1): state=runnable clock=30001 intxn=false\n" +
		"t2(core 2): state=runnable clock=29995 intxn=false\n" +
		"t3(core 3): state=done clock=0 intxn=false"
	if se.Kind != StallCycleBudget || se.Error() != want {
		t.Fatalf("stall = %q\nwant %q", se.Error(), want)
	}
	if stack != 2 {
		t.Fatalf("stall raised on t%d's stack, want t2's: the probe step was not taken in place", stack)
	}
}

// TestLivelockInSpin: two threads spin on a word that is never cleared —
// one with load probes, one with CAS probes — while a third computes. No
// probe ever succeeds, so the watchdog must raise the same livelock, with
// the same last running thread and dump, as before.
func TestLivelockInSpin(t *testing.T) {
	m := New(Config{Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1, StallCycles: 20_000})
	word := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(word, 1)
	_, err := m.RunE(3, func(c *Context) {
		switch c.ID() {
		case 0:
			c.SpinOn(word, false, 6, math.MaxInt)
		case 1:
			for !c.SpinOn(word, true, 6, 50) {
				c.Compute(300)
			}
		default:
			for {
				c.Compute(7)
			}
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	const want = "sim: livelock — no global progress within 20000 virtual cycles (last running t1)\n" +
		"t0(core 0): state=runnable clock=19946 intxn=false\n" +
		"t1(core 1): state=runnable clock=20085 intxn=false\n" +
		"t2(core 2): state=runnable clock=19950 intxn=false"
	if se.Kind != StallLivelock || se.Error() != want {
		t.Fatalf("stall = %q\nwant %q", se.Error(), want)
	}
}

// TestFatalPanicMidSpin: a body panics while another thread is queued
// partway through a SpinOn. Every survivor must unwind once, no carrier
// goroutine may leak, and the machine must run the next region exactly
// like a fresh one.
func TestFatalPanicMidSpin(t *testing.T) {
	// The budget turns a stale spin left armed into a stall, not a hang.
	cfg := Config{Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1, MaxCycles: 10_000_000}
	before := runtime.NumGoroutine()
	m := New(cfg)
	word := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(word, 1)
	boom := errors.New("boom")
	unwound := map[int]int{}
	spinning := false // t0 was mid-SpinOn when t1 panicked
	func() {
		defer func() {
			if p := recover(); p != boom {
				t.Fatalf("recovered %v, want the original panic value", p)
			}
		}()
		m.Run(4, func(c *Context) {
			defer func() { unwound[c.ID()]++ }()
			switch c.ID() {
			case 0:
				c.SpinOn(word, true, 6, math.MaxInt)
			case 1:
				for c.Now() < 30_000 {
					c.Compute(7)
				}
				spinning = m.ctxs[0].spinStage != spinIdle
				panic(boom)
			case 2:
				c.Block()
			default:
				c.SpinOn(word, false, 40, math.MaxInt)
			}
		})
		t.Fatal("Run returned instead of re-panicking")
	}()
	if !spinning || m.ctxs[0].spinStage == spinIdle {
		t.Fatal("t0 was not left mid-spin by the poison unwind")
	}
	for id := 0; id < 4; id++ {
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

	// A test-and-set lock on a fresh word; Result.Events counts over the
	// machine's lifetime, so only the clocks are compared.
	next := func(m *Machine) []uint64 {
		lock := m.Mem.AllocLine(8)
		res, err := m.RunE(6, func(c *Context) {
			for i := 0; i < 20; i++ {
				for !c.SpinOn(lock, true, 6, 100) {
					c.Compute(500)
				}
				c.Compute(uint64(100 + 13*i))
				c.Store(lock, 0)
			}
		})
		if err != nil {
			t.Fatalf("next region: %v", err)
		}
		return res.PerThread
	}
	fresh := New(cfg)
	fresh.Mem.AllocLine(8) // the same layout as m
	if got, want := next(m), next(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused machine ran differently:\n got %+v\nwant %+v", got, want)
	}
}
