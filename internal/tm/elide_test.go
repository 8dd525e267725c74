package tm

import (
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
)

func lockset() (*sim.Machine, *htm.Runtime, *Elider) {
	m := sim.New(sim.DefaultConfig())
	rt := htm.New(m)
	return m, rt, NewElider(rt, m, "lockset")
}

func TestElideSetSingleLockCounter(t *testing.T) {
	m, rt, el := lockset()
	mu := []*ssync.Mutex{ssync.NewMutex(m.Mem)}
	a := m.Mem.AllocLine(8)
	const perThread = 300
	m.Run(8, func(c *sim.Context) {
		for i := 0; i < perThread; i++ {
			el.ElideSet(c, mu, func(tx Tx) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	if got := m.Mem.ReadRaw(a); got != 8*perThread {
		t.Fatalf("counter = %d, want %d", got, 8*perThread)
	}
	if rt.Stats.Commits == 0 {
		t.Fatal("nothing committed transactionally")
	}
}

func TestElideSetSingleLockMostlyElides(t *testing.T) {
	// Disjoint data under one lock: elision should succeed nearly always.
	m, rt, el := lockset()
	mu := []*ssync.Mutex{ssync.NewMutex(m.Mem)}
	arr := m.Mem.AllocArray(8, sim.LineSize)
	m.Run(8, func(c *sim.Context) {
		a := arr + sim.Addr(c.ID()*sim.LineSize)
		for i := 0; i < 200; i++ {
			el.ElideSet(c, mu, func(tx Tx) { tx.Store(a, tx.Load(a)+1) })
		}
	})
	total := rt.Stats.Commits + rt.Stats.TotalAborts()
	if rate := float64(rt.Stats.TotalAborts()) / float64(total); rate > 0.05 {
		t.Fatalf("abort rate %.2f on disjoint data, want ~0", rate)
	}
	if rt.Stats.Fallback > 0 {
		t.Fatalf("fallbacks = %d, want 0", rt.Stats.Fallback)
	}
}

func TestLockSetElision(t *testing.T) {
	// physicsSolver's pattern: update a pair of objects under their two
	// locks, elided by a single transactional begin.
	m, _, el := lockset()
	const nObj = 16
	locks := make([]*ssync.Mutex, nObj)
	for i := range locks {
		locks[i] = ssync.NewMutex(m.Mem)
	}
	force := m.Mem.AllocArray(nObj, sim.LineSize)
	const perThread = 200
	m.Run(8, func(c *sim.Context) {
		for i := 0; i < perThread; i++ {
			a := c.Rand.Intn(nObj)
			b := (a + 1 + c.Rand.Intn(nObj-1)) % nObj
			el.ElideSet(c, []*ssync.Mutex{locks[a], locks[b]}, func(tx Tx) {
				tx.Store(force+sim.Addr(a*sim.LineSize), tx.Load(force+sim.Addr(a*sim.LineSize))+1)
				tx.Store(force+sim.Addr(b*sim.LineSize), tx.Load(force+sim.Addr(b*sim.LineSize))+1)
			})
		}
	})
	var sum uint64
	for i := 0; i < nObj; i++ {
		sum += m.Mem.ReadRaw(force + sim.Addr(i*sim.LineSize))
	}
	if sum != 8*perThread*2 {
		t.Fatalf("total updates = %d, want %d", sum, 8*perThread*2)
	}
}

func TestLockSetFallbackOrderAvoidsDeadlock(t *testing.T) {
	// Force constant fallback (syscall in body) with opposite lock orders
	// and a repeated member: the sorted, deduplicated fallback acquisition
	// must neither deadlock nor take a lock twice.
	m, rt, el := lockset()
	l1 := ssync.NewMutex(m.Mem)
	l2 := ssync.NewMutex(m.Mem)
	a := m.Mem.AllocLine(8)
	m.Run(2, func(c *sim.Context) {
		set := []*ssync.Mutex{l1, l2, l1}
		if c.ID() == 1 {
			set = []*ssync.Mutex{l2, l1, l2}
		}
		first := set[0]
		for i := 0; i < 50; i++ {
			el.ElideSet(c, set, func(tx Tx) {
				tx.Ctx().Syscall(10) // always abort => always fall back
				tx.Store(a, tx.Load(a)+1)
			})
		}
		if set[0] != first || set[2] != first {
			t.Error("fallback reordered the caller's lock set")
		}
	})
	if got := m.Mem.ReadRaw(a); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
	if rt.Stats.Fallback != 100 {
		t.Fatalf("fallbacks = %d, want 100", rt.Stats.Fallback)
	}
}

func TestElideSetRespectsHeldMemberLock(t *testing.T) {
	m, _, el := lockset()
	mu := ssync.NewMutex(m.Mem)
	other := ssync.NewMutex(m.Mem)
	a := m.Mem.AllocLine(8)
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			mu.Lock(c)
			c.Compute(30000)
			c.Store(a, 1)
			mu.Unlock(c)
			return
		}
		c.Compute(500)
		el.ElideSet(c, []*ssync.Mutex{other, mu}, func(tx Tx) {
			if tx.Load(a) != 1 {
				t.Error("elided section ran concurrently with lock holder")
			}
		})
	})
}

// TestElisionSitesReportProbes: on an armed machine the global-lock site of
// a TSX System and a lockset site report their attempts, fallbacks,
// fallback occupancy and spans under their own names, from the one loop.
func TestElisionSitesReportProbes(t *testing.T) {
	probe.ResetGlobal()
	defer probe.ResetGlobal()
	cfg := sim.DefaultConfig()
	cfg.Metrics = true
	cfg.TraceEvents = 1 << 12
	m := sim.New(cfg)
	s := NewSystem(m, TSX)
	el := NewElider(s.HTM, m, "lockset")
	locks := []*ssync.Mutex{ssync.NewMutex(m.Mem), ssync.NewMutex(m.Mem)}
	a := m.Mem.AllocLine(8)
	const regions = 6 // per site; every third makes a syscall and falls back
	m.Run(1, func(c *sim.Context) {
		for i := 0; i < regions; i++ {
			sys := i%3 == 2
			body := func(tx Tx) {
				if sys {
					tx.Ctx().Syscall(10)
				}
				tx.Store(a, tx.Load(a)+1)
			}
			s.Atomic(c, body)
			el.ElideSet(c, locks, body)
		}
	})
	if got := m.Mem.ReadRaw(a); got != 2*regions {
		t.Fatalf("counter = %d, want %d", got, 2*regions)
	}
	snap := m.ProbeSnapshot()
	spans := map[string]int{}
	for _, sp := range m.TraceRing().Spans() {
		spans[sp.Cat+"/"+sp.Name]++
	}
	for _, site := range []string{"global", "lockset"} {
		h, ok := snap.Hist("tsx/site/" + site + "/attempts")
		if !ok || h.Count != regions || h.Sum != regions {
			t.Errorf("%s attempts: %+v (present %v), want %d regions of one try each", site, h, ok, regions)
		}
		if got := snap.Counter("tsx/site/" + site + "/fallbacks"); got != regions/3 {
			t.Errorf("%s fallbacks = %d, want %d", site, got, regions/3)
		}
		if snap.Counter("tsx/site/"+site+"/fallback-cycles") == 0 {
			t.Errorf("%s fallback-cycles = 0, want the lock hold time", site)
		}
	}
	want := map[string]int{
		"txn/tsx:commit":            2 * (regions - regions/3),
		"txn/tsx:abort:syscall":     2 * regions / 3,
		"fallback/tsx:fallback":     regions / 3,
		"fallback/lockset:fallback": regions / 3,
	}
	for k, n := range want {
		if spans[k] != n {
			t.Errorf("%d %q spans, want %d (all: %v)", spans[k], k, n, spans)
		}
	}
}
