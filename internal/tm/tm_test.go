package tm

import (
	"testing"
	"testing/quick"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
)

func sys(mode Mode) (*sim.Machine, *System) {
	m := sim.New(sim.DefaultConfig())
	return m, NewSystem(m, mode)
}

func TestAllModesCounterCorrect(t *testing.T) {
	for _, mode := range []Mode{SGL, TL2, TSX} {
		m, s := sys(mode)
		a := m.Mem.AllocLine(8)
		const perThread = 250
		m.Run(8, func(c *sim.Context) {
			for i := 0; i < perThread; i++ {
				s.Atomic(c, func(tx Tx) {
					tx.Store(a, tx.Load(a)+1)
				})
			}
		})
		if got := m.Mem.ReadRaw(a); got != 8*perThread {
			t.Errorf("%v: counter = %d, want %d", mode, got, 8*perThread)
		}
	}
}

// TestAllModesBeyond64Threads runs a 96-thread region on a 2×16×4 machine:
// the per-thread nesting slots must cover every hardware thread, not 64.
func TestAllModesBeyond64Threads(t *testing.T) {
	const n = 96
	for _, mode := range []Mode{SGL, TL2, TSX} {
		cfg := sim.DefaultConfig()
		cfg.Sockets, cfg.Cores, cfg.ThreadsPerCore = 2, 16, 4
		m := sim.New(cfg)
		s := NewSystem(m, mode)
		a := m.Mem.AllocLine(8)
		m.Run(n, func(c *sim.Context) {
			s.Atomic(c, func(tx Tx) {
				tx.Store(a, tx.Load(a)+1)
			})
		})
		if got := m.Mem.ReadRaw(a); got != n {
			t.Errorf("%v: counter = %d, want %d", mode, got, n)
		}
	}
}

func TestRawModeNoLocking(t *testing.T) {
	m, s := sys(Raw)
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		s.Atomic(c, func(tx Tx) { tx.Store(a, 5) })
	})
	if m.Mem.ReadRaw(a) != 5 {
		t.Fatal("raw mode did not execute body")
	}
}

func TestFlatNesting(t *testing.T) {
	for _, mode := range []Mode{SGL, TL2, TSX} {
		m, s := sys(mode)
		a := m.Mem.AllocLine(8)
		m.Run(2, func(c *sim.Context) {
			for i := 0; i < 50; i++ {
				s.Atomic(c, func(tx Tx) {
					v := tx.Load(a)
					s.Atomic(c, func(inner Tx) { // must flatten, not deadlock
						inner.Store(a, v+1)
					})
				})
			}
		})
		if got := m.Mem.ReadRaw(a); got != 100 {
			t.Errorf("%v nested: counter = %d, want 100", mode, got)
		}
	}
}

func TestTSXFallbackOnCapacity(t *testing.T) {
	m, s := sys(TSX)
	// A region too large for L1 write buffering: must fall back to the lock
	// yet still execute correctly.
	base := m.Mem.AllocLine(16 * 4096)
	m.Run(1, func(c *sim.Context) {
		s.Atomic(c, func(tx Tx) {
			for i := 0; i < 12; i++ {
				a := base + sim.Addr(i*4096)
				tx.Store(a, tx.Load(a)+1)
			}
		})
	})
	for i := 0; i < 12; i++ {
		if got := m.Mem.ReadRaw(base + sim.Addr(i*4096)); got != 1 {
			t.Fatalf("slot %d = %d, want 1", i, got)
		}
	}
	if s.HTM.Stats.Fallback == 0 {
		t.Fatal("expected fallback lock acquisitions")
	}
	if s.HTM.Stats.Aborts[htm.Capacity] == 0 {
		t.Fatal("expected capacity aborts")
	}
}

func TestTSXSyscallGoesStraightToLock(t *testing.T) {
	m, s := sys(TSX)
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		s.Atomic(c, func(tx Tx) {
			tx.Ctx().Syscall(50) // e.g. file I/O inside a critical section
			tx.Store(a, tx.Load(a)+1)
		})
	})
	if m.Mem.ReadRaw(a) != 1 {
		t.Fatal("region did not execute")
	}
	if s.HTM.Stats.Aborts[htm.SyscallAbort] != 1 {
		t.Fatalf("syscall aborts = %d, want exactly 1 (no useless retries)", s.HTM.Stats.Aborts[htm.SyscallAbort])
	}
	if s.HTM.Stats.Fallback != 1 {
		t.Fatalf("fallback = %d, want 1", s.HTM.Stats.Fallback)
	}
}

func TestTSXLockBusyWaitsForFree(t *testing.T) {
	m, s := sys(TSX)
	a := m.Mem.AllocLine(8)
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			// Take the fallback lock explicitly for a long time.
			s.GLock.Lock(c)
			c.Compute(20000)
			c.Store(a, 1)
			s.GLock.Unlock(c)
			return
		}
		c.Compute(1000)
		s.Atomic(c, func(tx Tx) {
			// Must not run concurrently with the explicit lock holder.
			if tx.Load(a) != 1 {
				t.Error("elided region ran while fallback lock was held")
			}
		})
	})
	if s.HTM.Stats.Aborts[htm.LockBusy] == 0 {
		t.Fatal("expected lock-busy aborts")
	}
}

func TestTSXSingleThreadOverheadLow(t *testing.T) {
	// The headline Figure 2 contrast: TSX single-thread cost is close to
	// SGL, while TL2 pays heavy instrumentation.
	cost := func(mode Mode) uint64 {
		m, s := sys(mode)
		n := 256
		arr := m.Mem.AllocLine(8 * n)
		res := m.Run(1, func(c *sim.Context) {
			for i := 0; i < n; i++ {
				s.Atomic(c, func(tx Tx) {
					for j := 0; j < 4; j++ {
						a := arr + sim.Addr(((i*4+j)%n)*8)
						tx.Store(a, tx.Load(a)+1)
					}
				})
			}
		})
		return res.Cycles
	}
	sgl, tl2, tsx := cost(SGL), cost(TL2), cost(TSX)
	if float64(tsx) > 1.5*float64(sgl) {
		t.Errorf("tsx 1-thread (%d) should be close to sgl (%d)", tsx, sgl)
	}
	if float64(tl2) < 2*float64(sgl) {
		t.Errorf("tl2 1-thread (%d) should be much slower than sgl (%d)", tl2, sgl)
	}
}

func TestTSXScalesWhereSGLDoesNot(t *testing.T) {
	// Disjoint-access parallel workload: SGL serializes, TSX does not.
	run := func(mode Mode, threads int) uint64 {
		m, s := sys(mode)
		counters := m.Mem.AllocArray(8, sim.LineSize)
		res := m.Run(threads, func(c *sim.Context) {
			a := counters + sim.Addr(c.ID()*sim.LineSize)
			for i := 0; i < 300; i++ {
				s.Atomic(c, func(tx Tx) {
					tx.Store(a, tx.Load(a)+1)
					tx.Ctx().Compute(60)
				})
			}
		})
		return res.Cycles
	}
	// Each thread performs a fixed amount of work, so throughput speedup at
	// 4 threads is 4 * t1 / t4.
	sglSpeedup := 4 * float64(run(SGL, 1)) / float64(run(SGL, 4))
	tsxSpeedup := 4 * float64(run(TSX, 1)) / float64(run(TSX, 4))
	if tsxSpeedup < 3 {
		t.Errorf("tsx speedup at 4 threads = %.2f, want >= 3", tsxSpeedup)
	}
	if sglSpeedup > 1.6 {
		t.Errorf("sgl speedup at 4 threads = %.2f, expected serialization", sglSpeedup)
	}
}

func TestHelpersRoundTrip(t *testing.T) {
	m, s := sys(SGL)
	a := m.Mem.AllocLine(16)
	m.Run(1, func(c *sim.Context) {
		s.Atomic(c, func(tx Tx) {
			StoreF(tx, a, 3.5)
			StoreI(tx, a+8, -42)
			if LoadF(tx, a) != 3.5 || LoadI(tx, a+8) != -42 {
				t.Error("helper round trip failed")
			}
		})
	})
}

func TestModeString(t *testing.T) {
	for mode, want := range map[Mode]string{Raw: "raw", SGL: "sgl", TL2: "tl2", TSX: "tsx"} {
		if mode.String() != want {
			t.Errorf("%d.String() = %q", mode, mode.String())
		}
	}
}

func TestAbortRateAndReset(t *testing.T) {
	m, s := sys(TSX)
	a := m.Mem.AllocLine(8)
	m.Run(8, func(c *sim.Context) {
		for i := 0; i < 100; i++ {
			s.Atomic(c, func(tx Tx) { tx.Store(a, tx.Load(a)+1) })
		}
	})
	if s.AbortRate() <= 0 {
		t.Fatal("expected a nonzero abort rate under contention")
	}
	s.ResetStats()
	if s.AbortRate() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// TestPropertyModesAgree runs a randomized batch of read-modify-write
// programs under every mode and checks that the final memory state matches
// the SGL reference — the fundamental serializability property.
func TestPropertyModesAgree(t *testing.T) {
	const slots = 16
	f := func(ops []uint16) bool {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		// Each op atomically adds (op) to a destination slot and 1 to a
		// source slot, so across the whole array every op contributes
		// exactly op+1 regardless of commit order. Every mode must
		// preserve that invariant.
		var want uint64
		for _, op := range ops {
			want += uint64(op) + 1
		}
		for _, mode := range []Mode{SGL, TL2, TSX} {
			m, s := sys(mode)
			arr := m.Mem.AllocLine(8 * slots)
			m.Run(4, func(c *sim.Context) {
				for i, op := range ops {
					if i%4 != c.ID() {
						continue
					}
					srcSlot := int(op) % slots
					dstSlot := (srcSlot + 1 + int(op>>4)%(slots-1)) % slots
					src := sim.Addr(srcSlot) * 8
					dst := sim.Addr(dstSlot) * 8
					s.Atomic(c, func(tx Tx) {
						v := tx.Load(arr + src)
						tx.Store(arr+dst, tx.Load(arr+dst)+uint64(op))
						tx.Store(arr+src, v+1)
					})
				}
			})
			var sum uint64
			for i := 0; i < slots; i++ {
				sum += m.Mem.ReadRaw(arr + sim.Addr(i*8))
			}
			if sum != want {
				t.Logf("%v: sum=%d want=%d ops=%v", mode, sum, want, ops)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
