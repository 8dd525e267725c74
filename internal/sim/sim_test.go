package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRunSingleThreadCharges(t *testing.T) {
	m := New(DefaultConfig())
	res := m.Run(1, func(c *Context) {
		c.Compute(100)
		c.Compute(23)
	})
	if res.Cycles != 123 {
		t.Fatalf("cycles = %d, want 123", res.Cycles)
	}
	if len(res.PerThread) != 1 || res.PerThread[0] != 123 {
		t.Fatalf("per-thread = %v", res.PerThread)
	}
}

// TestLoadAfterIsOneCharge: LoadAfter(pre, a) costs what Compute(pre) and
// Load(a) cost apart, returns the word, and is a single event.
func TestLoadAfterIsOneCharge(t *testing.T) {
	m := New(DefaultConfig())
	a, b := m.Mem.AllocLine(8), m.Mem.AllocLine(8) // both cold: one miss each
	m.Mem.write(a, 7)
	var merged, apart uint64
	res := m.Run(1, func(c *Context) {
		t0 := c.Now()
		if v := c.LoadAfter(13, a); v != 7 {
			t.Errorf("LoadAfter read %d, want 7", v)
		}
		merged = c.Now() - t0
		t0 = c.Now()
		c.Compute(13)
		c.Load(b)
		apart = c.Now() - t0
	})
	if merged != apart || merged != 13+m.Costs.Miss {
		t.Fatalf("LoadAfter cost %d, Compute+Load %d, want %d", merged, apart, 13+m.Costs.Miss)
	}
	if res.Events != 1+2 {
		t.Fatalf("events = %d, want 3 (LoadAfter 1, Compute+Load 2)", res.Events)
	}
}

func TestRunMakespanIsMax(t *testing.T) {
	m := New(DefaultConfig())
	res := m.Run(4, func(c *Context) {
		c.Compute(uint64(100 * (c.ID() + 1)))
	})
	if res.Cycles != 400 {
		t.Fatalf("cycles = %d, want 400", res.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		m := New(DefaultConfig())
		a := m.Mem.AllocLine(8)
		return m.Run(8, func(c *Context) {
			for i := 0; i < 200; i++ {
				v := c.Load(a)
				c.Store(a, v+1)
				c.Compute(uint64(c.Rand.Int63n(50)))
			}
		})
	}
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles || r1.Events != r2.Events {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestMinClockInterleaving(t *testing.T) {
	m := New(DefaultConfig())
	var order []int
	m.Run(2, func(c *Context) {
		for i := 0; i < 3; i++ {
			order = append(order, c.ID())
			c.Compute(10)
		}
	})
	// Equal costs => strict alternation starting with thread 0.
	want := []int{0, 1, 0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestThreadAffinityBreadthFirst(t *testing.T) {
	m := New(DefaultConfig())
	cores := make([]int, 8)
	m.Run(8, func(c *Context) {
		cores[c.ID()] = c.CoreID()
	})
	for i := 0; i < 4; i++ {
		if cores[i] != i {
			t.Fatalf("thread %d on core %d, want %d", i, cores[i], i)
		}
		if cores[i+4] != i {
			t.Fatalf("thread %d on core %d, want %d (second HT)", i+4, cores[i+4], i)
		}
	}
}

func TestHyperThreadPenalty(t *testing.T) {
	m := New(DefaultConfig())
	// 2 threads on different cores: no penalty.
	r2 := m.Run(2, func(c *Context) { c.Compute(1000) })
	if r2.Cycles != 1000 {
		t.Fatalf("2-thread cycles = %d, want 1000", r2.Cycles)
	}
	// 8 threads: siblings co-resident, 1.6x penalty.
	r8 := m.Run(8, func(c *Context) { c.Compute(1000) })
	if r8.Cycles != 1600 {
		t.Fatalf("8-thread cycles = %d, want 1600", r8.Cycles)
	}
}

func TestHyperThreadPenaltyLiftsWhenSiblingBlocks(t *testing.T) {
	m := New(DefaultConfig())
	res := m.Run(8, func(c *Context) {
		if c.ID() >= 4 {
			// Second HT finishes immediately, releasing the core.
			return
		}
		c.Compute(1000)
	})
	// The first compute quantum may still see the sibling as runnable, so
	// allow a small residue over the unpenalized 1000 cycles.
	if res.Cycles < 1000 || res.Cycles > 1150 {
		t.Fatalf("cycles = %d, want ~1000 (sibling done => full speed)", res.Cycles)
	}
}

func TestMaxThreadsAndDisableHT(t *testing.T) {
	m := New(DefaultConfig())
	if got := m.MaxThreads(); got != 8 {
		t.Fatalf("MaxThreads = %d, want 8", got)
	}
	cfg := DefaultConfig()
	cfg.DisableHT = true
	m2 := New(cfg)
	if got := m2.MaxThreads(); got != 4 {
		t.Fatalf("MaxThreads(DisableHT) = %d, want 4", got)
	}
}

func TestRunPanicsOnBadThreadCount(t *testing.T) {
	m := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 9 threads on an 8-thread machine")
		}
	}()
	m.Run(9, func(c *Context) {})
}

func TestBlockWake(t *testing.T) {
	m := New(DefaultConfig())
	var waiter *Context
	woken := false
	m.Run(2, func(c *Context) {
		if c.ID() == 0 {
			waiter = c
			c.Block()
			woken = true
			return
		}
		c.Compute(500)
		c.Wake(waiter, c.Now()+100)
	})
	if !woken {
		t.Fatal("waiter never woke")
	}
	if waiter.Now() != 600 {
		t.Fatalf("waiter clock = %d, want 600", waiter.Now())
	}
}

// TestDeadlockPanics asserts a deadlocked region raises a typed *StallError
// whose message preserves the old panic's content: the "deadlock" headline
// with the last running thread, and the per-thread state dump (thread id,
// core, state, clock) for every context.
func TestDeadlockPanics(t *testing.T) {
	m := New(DefaultConfig())
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected deadlock panic")
		}
		se, ok := p.(*StallError)
		if !ok {
			t.Fatalf("panic value is %T, want *StallError: %v", p, p)
		}
		if se.Kind != StallDeadlock {
			t.Fatalf("kind = %q, want %q", se.Kind, StallDeadlock)
		}
		msg := se.Error()
		for _, want := range []string{
			"deadlock — no runnable contexts",
			"last running t1",
			"t0(core 0): state=blocked clock=",
			"t1(core 1): state=done clock=",
		} {
			if !strings.Contains(msg, want) {
				t.Fatalf("stall message missing %q:\n%s", want, msg)
			}
		}
		if len(se.Threads) != 2 {
			t.Fatalf("thread states = %d, want 2", len(se.Threads))
		}
	}()
	m.Run(2, func(c *Context) {
		if c.ID() == 0 {
			c.Block() // nobody will wake us
		}
	})
}

// TestRunEContainsDeadlock asserts RunE converts the stall panic into an
// error and that the simulated goroutines are fully unwound (no leak).
func TestRunEContainsDeadlock(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(DefaultConfig())
	_, err := m.RunE(4, func(c *Context) {
		if c.ID() != 3 {
			c.Block() // t3 finishes; t0..t2 park forever
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Kind != StallDeadlock {
		t.Fatalf("kind = %q", se.Kind)
	}
	// The three parked goroutines must have been poison-unwound.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked after stall: %d > %d", n, before)
	}
}

// TestLivelockWatchdog asserts the no-progress watchdog converts an
// infinite spin (clocks advancing, nothing committing) into a livelock
// StallError at the configured virtual-cycle budget.
func TestLivelockWatchdog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallCycles = 100_000
	m := New(cfg)
	_, err := m.RunE(2, func(c *Context) {
		for { // spin forever: virtual cycles burn, no progress events
			c.Compute(100)
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Kind != StallLivelock || se.Limit != cfg.StallCycles {
		t.Fatalf("got kind=%q limit=%d", se.Kind, se.Limit)
	}
}

// TestProgressResetsWatchdog asserts progress events keep a long-running but
// healthy region alive past the watchdog window.
func TestProgressResetsWatchdog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallCycles = 10_000
	m := New(cfg)
	res, err := m.RunE(1, func(c *Context) {
		for i := 0; i < 20; i++ {
			c.Compute(8_000) // under the window each leg...
			c.Progress()     // ...and progress resets it
		}
	})
	if err != nil {
		t.Fatalf("healthy region stalled: %v", err)
	}
	if res.Cycles != 160_000 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
}

// TestMaxCyclesBudget asserts the hard per-run cycle budget fires even while
// progress events keep arriving.
func TestMaxCyclesBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000
	m := New(cfg)
	_, err := m.RunE(1, func(c *Context) {
		for {
			c.Compute(1_000)
			c.Progress()
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Kind != StallCycleBudget || se.Limit != 50_000 {
		t.Fatalf("got kind=%q limit=%d", se.Kind, se.Limit)
	}
}

// TestFinishWithEmptyQueue covers the terminal handoff: the last runnable
// context finishes while the run queue is empty, so finish must hand
// control back to the region driver (not a successor), and the machine must
// come out clean enough to run further regions.
func TestFinishWithEmptyQueue(t *testing.T) {
	m := New(DefaultConfig())
	res := m.Run(1, func(c *Context) {}) // empty body: finish sees an empty queue at clock 0
	if res.Cycles != 0 || len(res.PerThread) != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Staggered finishes: each finisher but the last hands off to a
	// successor; the last again finds the queue empty. Reusing m also
	// checks the drain left no stale carrier state behind.
	res = m.Run(3, func(c *Context) {
		c.Compute(uint64(10 * (c.ID() + 1)))
	})
	if res.Cycles != 30 {
		t.Fatalf("cycles = %d, want 30", res.Cycles)
	}
}

// TestPoisonUnwindMidBatch: a fatal panic ends the region while the other
// contexts are parked mid-batch (between Compute quanta). The poison unwind
// must resume each parked context exactly once, run its deferred cleanup,
// and re-raise the original panic value from Run — with no carrier
// goroutine leaked.
func TestPoisonUnwindMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(DefaultConfig())
	boom := errors.New("boom")
	unwound := make(map[int]int)
	func() {
		defer func() {
			if p := recover(); p != boom {
				t.Fatalf("recovered %v, want the original panic value", p)
			}
		}()
		m.Run(4, func(c *Context) {
			if c.ID() == 3 {
				c.Compute(5_000) // let the others park first
				panic(boom)
			}
			defer func() { unwound[c.ID()]++ }()
			for {
				c.Compute(400) // long batched stretch, parks on every yield
			}
		})
		t.Fatal("Run returned instead of re-panicking")
	}()
	for id := 0; id < 3; id++ {
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
}

// TestWakeBeforeBlock covers the wake/park race: Wake targets a context
// that is still runnable (it has not reached its Block call yet). The wake
// must be recorded as pending and consumed by the later Block, which
// returns immediately with the clock advanced to the wake time — parking
// there would deadlock, since the waker is already gone.
func TestWakeBeforeBlock(t *testing.T) {
	m := New(DefaultConfig())
	var target *Context
	res := m.Run(2, func(c *Context) {
		if c.ID() == 0 {
			target = c
			c.Compute(100) // yield to t1, which wakes us while we are runnable
			c.Block()      // must consume the pending wake, not park
			return
		}
		c.Wake(target, 250) // t0 is runnable at clock 100, not blocked
	})
	if target.Now() != 250 {
		t.Fatalf("target clock = %d, want 250 (pending wake not honored)", target.Now())
	}
	if res.Cycles != 250 {
		t.Fatalf("cycles = %d, want 250", res.Cycles)
	}
}

// TestWatchdogFiresMidBatch: a single context never leaves the batched
// fast path (no other context ever preempts it), so the watchdog deadline
// must be enforced by the event charge itself, not by the handoff path.
func TestWatchdogFiresMidBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallCycles = 50_000
	m := New(cfg)
	_, err := m.RunE(1, func(c *Context) {
		for {
			c.Compute(100) // batched: maybeYield never switches with one thread
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Kind != StallLivelock || se.Limit != cfg.StallCycles {
		t.Fatalf("got kind=%q limit=%d", se.Kind, se.Limit)
	}
}

// TestEvictStormFiresHooks asserts forced eviction notifies the eviction
// hook for marked lines and leaves the cache consistent.
func TestEvictStormFiresHooks(t *testing.T) {
	m := New(DefaultConfig())
	var evicted []Addr
	m.EvictHook = func(owner *Context, line Addr, wasWrite bool) {
		evicted = append(evicted, line)
	}
	a := m.Mem.AllocLine(8 * LineSize)
	m.Run(1, func(c *Context) {
		for i := 0; i < 4; i++ {
			c.TxAccess(a+Addr(i*LineSize), false) // mark 4 lines transactional
		}
		seq := 0
		picks := []int{} // deterministic sweep over all sets/ways
		for s := 0; s < cacheSets; s++ {
			for w := 0; w < cacheWays; w++ {
				picks = append(picks, s, w)
			}
		}
		n := m.EvictStorm(c, cacheSets*cacheWays, func(k int) int {
			v := picks[seq] % k
			seq++
			return v
		})
		if n == 0 {
			t.Error("storm evicted nothing")
		}
	})
	if len(evicted) != 4 {
		t.Fatalf("evict hook fired for %d lines, want 4 (%v)", len(evicted), evicted)
	}
}

func TestMemoryAllocAlignment(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(3)
	if a%8 != 0 || a == 0 {
		t.Fatalf("Alloc returned %#x", a)
	}
	b := m.AllocLine(8)
	if b%LineSize != 0 {
		t.Fatalf("AllocLine returned %#x", b)
	}
	if LineOf(b+63) != b {
		t.Fatalf("LineOf(%#x) = %#x", b+63, LineOf(b+63))
	}
}

func TestMemoryFreeListReuse(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(24)
	m.WriteRaw(a, 42)
	m.Free(a, 24)
	b := m.Alloc(24)
	if a != b {
		t.Fatalf("free list not reused: %#x vs %#x", a, b)
	}
	if m.ReadRaw(b) != 0 {
		t.Fatal("reallocated block not zeroed")
	}
}

func TestMemoryMisalignedPanics(t *testing.T) {
	m := NewMemory()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned access")
		}
	}()
	m.ReadRaw(65)
}

func TestMemoryIntern(t *testing.T) {
	m := NewMemory()
	h := m.Intern("hello")
	if h == 0 {
		t.Fatal("handle must be nonzero")
	}
	if m.Obj(h).(string) != "hello" {
		t.Fatal("intern round trip failed")
	}
	if m.Obj(0) != nil {
		t.Fatal("handle 0 must resolve to nil")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool { return B2F(F2B(x)) == x || x != x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(x int64) bool { return B2I(I2B(x)) == x }
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitVsMissCost(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Mem.AllocLine(8)
	var first, second uint64
	m.Run(1, func(c *Context) {
		t0 := c.Now()
		c.Load(a)
		first = c.Now() - t0
		t0 = c.Now()
		c.Load(a)
		second = c.Now() - t0
	})
	if first != m.Costs.Miss {
		t.Fatalf("cold load cost = %d, want %d", first, m.Costs.Miss)
	}
	if second != m.Costs.L1Hit {
		t.Fatalf("warm load cost = %d, want %d", second, m.Costs.L1Hit)
	}
}

func TestCacheTransferCostOnSharing(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Mem.AllocLine(8)
	var xferCost uint64
	m.Run(2, func(c *Context) {
		if c.ID() == 0 {
			c.Store(a, 7)
			c.Compute(1000)
			return
		}
		c.Compute(500) // let thread 0's store land first
		t0 := c.Now()
		c.Load(a)
		xferCost = c.Now() - t0
	})
	if xferCost != m.Costs.Transfer {
		t.Fatalf("cross-core load cost = %d, want %d", xferCost, m.Costs.Transfer)
	}
}

func TestStoreInvalidatesRemoteCopies(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Mem.AllocLine(8)
	costs := make([]uint64, 3)
	m.Run(2, func(c *Context) {
		if c.ID() == 0 {
			c.Load(a) // miss: cost Miss
			c.Compute(1000)
			t0 := c.Now()
			c.Load(a) // invalidated by thread 1's store: Transfer again
			costs[2] = c.Now() - t0
			return
		}
		c.Compute(100)
		t0 := c.Now()
		c.Store(a, 9) // invalidates thread 0's copy
		costs[1] = c.Now() - t0
	})
	if costs[1] != m.Costs.Transfer {
		t.Fatalf("invalidating store cost = %d, want %d", costs[1], m.Costs.Transfer)
	}
	if costs[2] != m.Costs.Transfer {
		t.Fatalf("post-invalidation load cost = %d, want %d", costs[2], m.Costs.Transfer)
	}
}

func TestCacheEvictionFiresHook(t *testing.T) {
	m := New(DefaultConfig())
	// 9 lines mapping to the same set (stride = sets * linesize = 4096).
	base := m.Mem.AllocLine(10 * cacheSets * LineSize)
	evicted := 0
	m.EvictHook = func(owner *Context, line Addr, wasWrite bool) {
		evicted++
		if !wasWrite {
			t.Error("expected write-marked eviction")
		}
	}
	m.Run(1, func(c *Context) {
		for i := 0; i < cacheWays+1; i++ {
			c.TxAccess(base+Addr(i*cacheSets*LineSize), true)
		}
	})
	if evicted != 1 {
		t.Fatalf("evictions = %d, want 1", evicted)
	}
}

func TestSyscallHookFires(t *testing.T) {
	m := New(DefaultConfig())
	fired := false
	m.SyscallHook = func(c *Context) { fired = true }
	m.Run(1, func(c *Context) { c.Syscall(100) })
	if !fired {
		t.Fatal("syscall hook did not fire")
	}
}

func TestFlushCaches(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Mem.AllocLine(8)
	var cost uint64
	m.Run(1, func(c *Context) { c.Load(a) })
	m.FlushCaches()
	m.Run(1, func(c *Context) {
		t0 := c.Now()
		c.Load(a)
		cost = c.Now() - t0
	})
	if cost != m.Costs.Miss {
		t.Fatalf("post-flush load cost = %d, want %d (miss)", cost, m.Costs.Miss)
	}
}

func TestConflictHookSeesEveryTimedAccess(t *testing.T) {
	m := New(DefaultConfig())
	var accesses []Addr
	m.ConflictHook = func(c *Context, line Addr, write bool) {
		accesses = append(accesses, line)
	}
	a := m.Mem.AllocLine(16)
	m.Run(1, func(c *Context) {
		c.Load(a)
		c.Store(a+8, 1) // same line
	})
	if len(accesses) != 2 || accesses[0] != LineOf(a) || accesses[1] != LineOf(a) {
		t.Fatalf("hook saw %v", accesses)
	}
}

func TestCacheStatsCounters(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Mem.AllocLine(8)
	m.Run(2, func(c *Context) {
		if c.ID() == 0 {
			c.Load(a) // miss
			c.Load(a) // hit
			c.Compute(1000)
			c.Load(a) // transfer back after thread 1's store invalidated us
			return
		}
		c.Compute(100)
		c.Store(a, 1) // transfer (invalidates thread 0's copy)
	})
	st := m.CacheStats()
	if st.Misses == 0 || st.Hits == 0 || st.Transfers < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheStatsEvictions(t *testing.T) {
	m := New(DefaultConfig())
	base := m.Mem.AllocLine(12 * cacheSets * LineSize)
	m.Run(1, func(c *Context) {
		for i := 0; i < cacheWays+3; i++ {
			c.Load(base + Addr(i*cacheSets*LineSize)) // same set
		}
	})
	if got := m.CacheStats().Evictions; got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
}
