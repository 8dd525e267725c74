package stm

import (
	"testing"

	"tsxhpc/internal/sim"
)

func mach() (*sim.Machine, *TL2) {
	m := sim.New(sim.DefaultConfig())
	return m, New(m)
}

func TestCommitPublishes(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(16)
	m.Run(1, func(c *sim.Context) {
		s.Run(c, func(tx *Txn) {
			tx.Store(a, 7)
			tx.Store(a+8, 8)
		})
	})
	if m.Mem.ReadRaw(a) != 7 || m.Mem.ReadRaw(a+8) != 8 {
		t.Fatal("writes not visible after commit")
	}
	if s.Stats.Commits != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
}

func TestLazyVersioning(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		s.Run(c, func(tx *Txn) {
			tx.Store(a, 42)
			if m.Mem.ReadRaw(a) != 0 {
				t.Error("TL2 write reached memory before commit (not lazy)")
			}
			if tx.Load(a) != 42 {
				t.Error("read-own-write failed")
			}
		})
	})
}

func TestConcurrentCounter(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(8)
	const perThread = 400
	m.Run(8, func(c *sim.Context) {
		for i := 0; i < perThread; i++ {
			s.Run(c, func(tx *Txn) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	if got := m.Mem.ReadRaw(a); got != 8*perThread {
		t.Fatalf("counter = %d, want %d", got, 8*perThread)
	}
	if s.Stats.Aborts == 0 {
		t.Fatal("expected aborts under contention")
	}
}

func TestDisjointWritesDoNotAbort(t *testing.T) {
	m, s := mach()
	// One padded counter per thread: no conflicts expected.
	base := m.Mem.AllocArray(8, sim.LineSize)
	m.Run(8, func(c *sim.Context) {
		a := base + sim.Addr(c.ID()*sim.LineSize)
		for i := 0; i < 100; i++ {
			s.Run(c, func(tx *Txn) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	for i := 0; i < 8; i++ {
		if got := m.Mem.ReadRaw(base + sim.Addr(i*sim.LineSize)); got != 100 {
			t.Fatalf("thread %d counter = %d", i, got)
		}
	}
	if s.Stats.Aborts != 0 {
		t.Fatalf("disjoint transactions aborted %d times", s.Stats.Aborts)
	}
}

func TestReadOnlyTransactionsCheap(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(a, 5)
	var roCost, rwCost uint64
	m.Run(1, func(c *sim.Context) {
		t0 := c.Now()
		s.Run(c, func(tx *Txn) { tx.Load(a) })
		roCost = c.Now() - t0
		t0 = c.Now()
		s.Run(c, func(tx *Txn) { tx.Store(a, tx.Load(a)) })
		rwCost = c.Now() - t0
	})
	if roCost >= rwCost {
		t.Fatalf("read-only commit (%d) should be cheaper than write commit (%d)", roCost, rwCost)
	}
}

func TestInstrumentationOverheadVsPlain(t *testing.T) {
	// The core Figure 2 effect: single-thread TL2 is much slower than plain
	// execution because every access pays software instrumentation.
	m, s := mach()
	n := 256
	arr := m.Mem.AllocLine(8 * n)
	var tl2Cost, plainCost uint64
	m.Run(1, func(c *sim.Context) {
		t0 := c.Now()
		for i := 0; i < n; i++ {
			s.Run(c, func(tx *Txn) {
				a := arr + sim.Addr(i*8)
				tx.Store(a, tx.Load(a)+1)
			})
		}
		tl2Cost = c.Now() - t0
		t0 = c.Now()
		for i := 0; i < n; i++ {
			a := arr + sim.Addr(i*8)
			c.Store(a, c.Load(a)+1)
		}
		plainCost = c.Now() - t0
	})
	if tl2Cost < 3*plainCost {
		t.Fatalf("TL2 overhead too low: tl2=%d plain=%d", tl2Cost, plainCost)
	}
}

func TestAbortRateMetric(t *testing.T) {
	var s Stats
	if s.AbortRate() != 0 {
		t.Fatal("empty stats should be 0")
	}
	s.Commits, s.Aborts = 1, 1
	if s.AbortRate() != 50 {
		t.Fatalf("AbortRate = %v", s.AbortRate())
	}
	s.Reset()
	if s.Commits != 0 || s.Aborts != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestWriteSkewPreventedBySerializability(t *testing.T) {
	// Classic STM litmus: two transactions each read both cells and write
	// one; TL2's read validation must keep x+y invariant-consistent.
	m, s := mach()
	x := m.Mem.AllocLine(8)
	y := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(x, 50)
	m.Mem.WriteRaw(y, 50)
	m.Run(2, func(c *sim.Context) {
		for i := 0; i < 200; i++ {
			s.Run(c, func(tx *Txn) {
				sum := tx.Load(x) + tx.Load(y)
				if sum != 100 {
					t.Errorf("invariant broken: sum=%d", sum)
				}
				if c.ID() == 0 {
					tx.Store(x, tx.Load(x)+1)
					tx.Store(y, tx.Load(y)-1)
				} else {
					tx.Store(y, tx.Load(y)+1)
					tx.Store(x, tx.Load(x)-1)
				}
			})
		}
	})
	if m.Mem.ReadRaw(x)+m.Mem.ReadRaw(y) != 100 {
		t.Fatalf("final sum = %d", m.Mem.ReadRaw(x)+m.Mem.ReadRaw(y))
	}
}

// TestProbeCountersMirrorStats arms the probe layer on a contended TL2 run
// and checks the tl2/* counters against Stats: starts, commits, the
// validation-failure breakdown summing to the abort total, global-version
// advances matching write commits, and commit/abort spans on the trace ring.
func TestProbeCountersMirrorStats(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Metrics = true
	cfg.TraceEvents = 4096
	m := sim.New(cfg)
	s := New(m)
	a := m.Mem.AllocLine(8)
	const threads, per = 4, 50
	m.Run(threads, func(c *sim.Context) {
		for i := 0; i < per; i++ {
			s.Run(c, func(tx *Txn) { tx.Store(a, tx.Load(a)+1) })
		}
	})
	if got := m.Mem.ReadRaw(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
	snap := m.ProbeSnapshot()
	if got := snap.Counter("tl2/starts"); got != s.Stats.Starts {
		t.Errorf("tl2/starts = %d, Stats.Starts = %d", got, s.Stats.Starts)
	}
	if got := snap.Counter("tl2/commits"); got != s.Stats.Commits {
		t.Errorf("tl2/commits = %d, Stats.Commits = %d", got, s.Stats.Commits)
	}
	abortSum := snap.Counter("tl2/abort/read-validate") +
		snap.Counter("tl2/abort/lock-busy") +
		snap.Counter("tl2/abort/commit-validate")
	if abortSum != s.Stats.Aborts {
		t.Errorf("abort-cause sum = %d, Stats.Aborts = %d", abortSum, s.Stats.Aborts)
	}
	if s.Stats.Aborts == 0 {
		t.Error("contended run produced no aborts; the breakdown is untested")
	}
	// Every committed transaction here writes, so each advances the gv.
	if got := snap.Counter("tl2/gv/advances"); got != s.Stats.Commits {
		t.Errorf("tl2/gv/advances = %d, want %d", got, s.Stats.Commits)
	}
	ring := m.TraceRing()
	if ring == nil {
		t.Fatal("TraceEvents did not attach a ring")
	}
	var commits, aborts int
	for _, sp := range ring.Spans() {
		switch sp.Name {
		case "tl2:commit":
			commits++
		case "tl2:abort":
			aborts++
		}
	}
	if uint64(commits) != s.Stats.Commits || uint64(aborts) != s.Stats.Aborts {
		t.Errorf("spans: %d commits, %d aborts; stats: %d, %d", commits, aborts, s.Stats.Commits, s.Stats.Aborts)
	}
}

// TestFreeAndLargeWriteSet covers the TM_FREE discipline (a transactional
// free takes effect only at commit) and a write set big enough to grow the
// write-map past its inline capacity.
func TestFreeAndLargeWriteSet(t *testing.T) {
	m, s := mach()
	base := m.Mem.Alloc(64 * 40)
	blk := m.Mem.Alloc(64)
	m.Run(1, func(c *sim.Context) {
		s.Run(c, func(tx *Txn) {
			for i := 0; i < 40; i++ {
				tx.Store(base+sim.Addr(64*i), uint64(i+1))
			}
			tx.Free(blk, 64)
		})
	})
	if s.Stats.Commits != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	for i := 0; i < 40; i++ {
		if got := m.Mem.ReadRaw(base + sim.Addr(64*i)); got != uint64(i+1) {
			t.Fatalf("word %d = %d after commit", i, got)
		}
	}
}

// TestLoadBarrierIsOneEvent: on one thread, a Load that misses the write
// set is one simulator event, and it costs what the barrier's
// instrumentation and a plain read cost apart (Compute(TL2Read) + Load).
func TestLoadBarrierIsOneEvent(t *testing.T) {
	events := func(body func(*Txn)) uint64 {
		m, s := mach()
		return m.Run(1, func(c *sim.Context) { s.Run(c, body) }).Events
	}
	m, s := mach()
	a, b := m.Mem.AllocLine(8), m.Mem.AllocLine(8) // both cold: one miss each
	if got := events(func(tx *Txn) { tx.Load(a) }) - events(func(*Txn) {}); got != 1 {
		t.Fatalf("a Load adds %d events, want 1", got)
	}
	var barrier, apart uint64
	m.Run(1, func(c *sim.Context) {
		s.Run(c, func(tx *Txn) {
			t0 := c.Now()
			tx.Load(a)
			barrier = c.Now() - t0
		})
		t0 := c.Now()
		c.Compute(m.Costs.TL2Read)
		c.Load(b)
		apart = c.Now() - t0
	})
	if barrier != apart {
		t.Fatalf("Load barrier costs %d cycles, Compute(TL2Read)+Load %d", barrier, apart)
	}
}

// TestCommitChargesPerLoop: a writer's commit charges its lock loop and its
// read-set validation as one Compute each (split only into Compute quanta),
// not one per orec and one per read. On one thread a transaction with w
// stores and r loads is its start, r loads, w stores, then the commit: the
// lock charge, the clock advance, the validation charge (none for r = 0),
// the write-back charge and w write-back stores.
func TestCommitChargesPerLoop(t *testing.T) {
	quanta := func(cyc uint64) uint64 { return (cyc + 159) / 160 } // Compute quanta
	for _, tc := range []struct{ w, r int }{{1, 0}, {3, 5}, {12, 64}} {
		m, s := mach()
		ws := m.Mem.AllocArray(tc.w, sim.LineSize)
		rs := m.Mem.AllocArray(tc.r+1, sim.LineSize)
		seen := map[int]bool{}
		for i := 0; i < tc.w; i++ {
			seen[orecIdx(ws+sim.Addr(i*sim.LineSize))] = true
		}
		if len(seen) != tc.w {
			t.Fatalf("w=%d: write addresses share orecs; pick others", tc.w)
		}
		res := m.Run(1, func(c *sim.Context) {
			s.Run(c, func(tx *Txn) {
				for i := 0; i < tc.r; i++ {
					tx.Load(rs + sim.Addr(i*sim.LineSize))
				}
				for i := 0; i < tc.w; i++ {
					tx.Store(ws+sim.Addr(i*sim.LineSize), 1)
				}
			})
		})
		w, r := uint64(tc.w), uint64(tc.r)
		commit := quanta(w*m.Costs.TL2PerOrec) + 1 + 1 + w
		if r > 0 {
			commit += quanta(r * m.Costs.TL2PerRead)
		}
		if want := 1 + r + w + commit; res.Events != want {
			t.Errorf("w=%d r=%d: %d events, want %d (commit %d)", tc.w, tc.r, res.Events, want, commit)
		}
		if s.Stats.Commits != 1 || s.Stats.Aborts != 0 {
			t.Errorf("w=%d r=%d: stats %+v", tc.w, tc.r, s.Stats)
		}
	}
}

// TestAbortingLoadChargesBarrier: a Load whose orec pre-check fails still
// pays its instrumentation before the abort: TL2Read then TL2AbortCost,
// two events.
func TestAbortingLoadChargesBarrier(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(8)
	s.orecs[orecIdx(a)].version = s.gv + 1 // written after any snapshot taken now
	var t0 uint64
	res := m.Run(1, func(c *sim.Context) {
		committed := s.try(c, func(tx *Txn) {
			t0 = c.Now()
			tx.Load(a)
		})
		if committed {
			t.Error("a Load of an orec newer than the snapshot committed")
		}
		if got, want := c.Now()-t0, m.Costs.TL2Read+m.Costs.TL2AbortCost; got != want {
			t.Errorf("aborting Load charged %d cycles, want TL2Read+TL2AbortCost = %d", got, want)
		}
	})
	if s.Stats.Aborts != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	if want := uint64(1 + 2); res.Events != want { // TL2Start, then the two charges
		t.Fatalf("%d events, want %d", res.Events, want)
	}
}

// TestStoreNMatchesStores: buffering a run of writes with StoreN leaves the
// same write set as one Store per word, in the same order, so commit
// publishes the same values (the last write to a repeated address wins) at
// the same virtual time.
func TestStoreNMatchesStores(t *testing.T) {
	run := func(batch bool) (uint64, [3]uint64) {
		m, s := mach()
		a := m.Mem.AllocLine(16)
		addrs := []sim.Addr{a, a + 8, a}
		vals := []uint64{1, 2, 3}
		res := m.Run(1, func(c *sim.Context) {
			s.Run(c, func(tx *Txn) {
				if tx.Ctx() != c {
					t.Error("Ctx is not the running thread")
				}
				if batch {
					tx.StoreN(addrs, vals)
					return
				}
				for i, ad := range addrs {
					tx.Store(ad, vals[i])
				}
			})
		})
		return res.Cycles, [3]uint64{m.Mem.ReadRaw(a), m.Mem.ReadRaw(a + 8), s.Stats.Commits}
	}
	cyc, got := run(true)
	wantCyc, want := run(false)
	if got != want || got != [3]uint64{3, 2, 1} {
		t.Fatalf("StoreN memory/commits = %v, Store loop %v, want [3 2 1]", got, want)
	}
	if cyc != wantCyc {
		t.Fatalf("StoreN takes %d cycles, the Store loop %d", cyc, wantCyc)
	}
}
