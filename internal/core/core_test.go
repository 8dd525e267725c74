package core

import (
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/tm"
)

func TestDoCoarsenedBatches(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	s := tm.NewSystem(m, tm.TSX)
	a := m.Mem.AllocLine(8)
	const n = 240
	m.Run(1, func(c *sim.Context) {
		DoCoarsened(s, c, n, 8, func(tx tm.Tx, i int) {
			tx.Store(a, tx.Load(a)+1)
		})
	})
	if got := m.Mem.ReadRaw(a); got != n {
		t.Fatalf("items executed = %d, want %d", got, n)
	}
	if got := s.HTM.Stats.Starts; got != n/8 {
		t.Fatalf("transactions started = %d, want %d (batched)", got, n/8)
	}
}

func TestDoCoarsenedGranularityAmortizes(t *testing.T) {
	cost := func(gran int) uint64 {
		m := sim.New(sim.DefaultConfig())
		s := tm.NewSystem(m, tm.TSX)
		arr := m.Mem.AllocLine(8 * 64)
		res := m.Run(1, func(c *sim.Context) {
			DoCoarsened(s, c, 512, gran, func(tx tm.Tx, i int) {
				a := arr + sim.Addr((i%64)*8)
				tx.Store(a, tx.Load(a)+1)
			})
		})
		return res.Cycles
	}
	if c1, c8 := cost(1), cost(8); c8 >= c1 {
		t.Fatalf("coarsening did not amortize: gran1=%d gran8=%d", c1, c8)
	}
}

func TestDoCoarsenedHandlesRemainderAndBadGran(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	s := tm.NewSystem(m, tm.TSX)
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		DoCoarsened(s, c, 10, 4, func(tx tm.Tx, i int) { tx.Store(a, tx.Load(a)+1) })
		DoCoarsened(s, c, 5, 0, func(tx tm.Tx, i int) { tx.Store(a, tx.Load(a)+1) })
	})
	if got := m.Mem.ReadRaw(a); got != 15 {
		t.Fatalf("items = %d, want 15", got)
	}
}

func TestLockModeStrings(t *testing.T) {
	want := map[LockMode]string{
		ModeMutex: "mutex", ModeTSXAbort: "tsx.abort", ModeTSXCond: "tsx.cond",
		ModeMutexBusyWait: "mutex.busywait", ModeTSXBusyWait: "tsx.busywait",
	}
	for mode, s := range want {
		if mode.String() != s {
			t.Errorf("%d.String() = %q, want %q", mode, mode.String(), s)
		}
	}
	if ModeMutex.Elides() || !ModeTSXCond.Elides() {
		t.Error("Elides misclassifies")
	}
}

// monitor exercises the producer/consumer monitor pattern under a locking
// module: a bounded counter "queue" with not-empty/not-full conditions.
func runMonitor(t *testing.T, mode LockMode) {
	t.Helper()
	m := sim.New(sim.DefaultConfig())
	lm := NewLockModule(m, mode)
	r := lm.NewRegion()
	notEmpty := lm.NewCond()
	notFull := lm.NewCond()
	depth := m.Mem.AllocLine(8)    // items queued
	produced := m.Mem.AllocLine(8) // running totals for the invariant
	consumed := m.Mem.AllocLine(8)
	const items = 200
	const cap = 4
	m.Run(4, func(c *sim.Context) {
		if c.ID()%2 == 0 { // producers
			for i := 0; i < items; i++ {
				r.Do(c, func(cs CS) {
					for cs.Load(depth) >= cap {
						cs.Wait(notFull)
					}
					cs.Store(depth, cs.Load(depth)+1)
					cs.Store(produced, cs.Load(produced)+1)
					cs.Signal(notEmpty)
				})
			}
			return
		}
		for i := 0; i < items; i++ { // consumers
			r.Do(c, func(cs CS) {
				for cs.Load(depth) == 0 {
					cs.Wait(notEmpty)
				}
				cs.Store(depth, cs.Load(depth)-1)
				cs.Store(consumed, cs.Load(consumed)+1)
				cs.Signal(notFull)
			})
		}
	})
	if p, cns, d := m.Mem.ReadRaw(produced), m.Mem.ReadRaw(consumed), m.Mem.ReadRaw(depth); p != 2*items || cns != 2*items || d != 0 {
		t.Fatalf("%v: produced=%d consumed=%d depth=%d, want %d/%d/0", mode, p, cns, d, 2*items, 2*items)
	}
}

func TestMonitorMutex(t *testing.T)         { runMonitor(t, ModeMutex) }
func TestMonitorTSXAbort(t *testing.T)      { runMonitor(t, ModeTSXAbort) }
func TestMonitorTSXCond(t *testing.T)       { runMonitor(t, ModeTSXCond) }
func TestMonitorMutexBusyWait(t *testing.T) { runMonitor(t, ModeMutexBusyWait) }
func TestMonitorTSXBusyWait(t *testing.T)   { runMonitor(t, ModeTSXBusyWait) }

func TestTSXCondDefersSignalsToCommit(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	lm := NewLockModule(m, ModeTSXCond)
	r := lm.NewRegion()
	cond := lm.NewCond()
	flag := m.Mem.AllocLine(8)
	var waiterWoke, signalerDone uint64
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			r.Do(c, func(cs CS) {
				for cs.Load(flag) == 0 {
					cs.Wait(cond)
				}
			})
			waiterWoke = c.Now()
			return
		}
		c.Compute(8000)
		r.Do(c, func(cs CS) {
			cs.Store(flag, 1)
			cs.Signal(cond)
		})
		signalerDone = c.Now()
	})
	if waiterWoke == 0 || signalerDone == 0 {
		t.Fatal("threads did not complete")
	}
	if waiterWoke < 8000 {
		t.Fatalf("waiter woke at %d, before the signal could exist", waiterWoke)
	}
	if lm.RT.Stats.Commits == 0 {
		t.Fatal("no transactional commits — elision never engaged")
	}
}

func TestTSXAbortModeAbortsOnCondVar(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	lm := NewLockModule(m, ModeTSXAbort)
	r := lm.NewRegion()
	cond := lm.NewCond()
	flag := m.Mem.AllocLine(8)
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			r.Do(c, func(cs CS) {
				for cs.Load(flag) == 0 {
					cs.Wait(cond)
				}
			})
			return
		}
		c.Compute(8000)
		r.Do(c, func(cs CS) {
			cs.Store(flag, 1)
			cs.Signal(cond)
		})
	})
	ab := lm.RT.Stats.Aborts
	if ab[htm.Explicit] == 0 && ab[htm.SyscallAbort] == 0 {
		t.Fatalf("expected explicit/syscall aborts from condvar ops, got %+v", lm.RT.Stats)
	}
}
