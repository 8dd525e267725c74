package core

import (
	"math"
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// TestElisionAllocs guards the host allocations one elided critical section
// costs on each elision entry point: the locking module's Region.Do, the
// TSX System.Atomic and a lockset ElideSet, plus a SendBatch-shaped region
// whose ring stores are one StoreN run. One thread runs n and then 2n
// regions that all commit on their first try; the difference between the
// two runs' allocation counts, divided by n, is the per-region cost, free
// of the machine's setup. The ceilings are the counts measured when the
// locking module still ran its own retry loop. The "atomic" and "tl2"
// ceilings also hold the recycled per-thread transaction records of htm and
// stm: without those pools a region costs 6 more allocations. A TL2 region's
// Tx and CS are its *stm.Txn, so they box for free. A plain region boxes
// its CS once ("storen-mutex"); its run adds nothing.
//
// The runtime allocates now and then on its own (a carrier goroutine's g,
// GC bookkeeping), a few mallocs a run that move one reading by 1/n. The
// cases whose ceiling is the exact count, with no slack for that, read the
// least of three tries: a region's own allocations show in every try. The
// other cases read once.
func TestElisionAllocs(t *testing.T) {
	const n = 64
	perRegion := func(region func(m *sim.Machine) func(c *sim.Context, a sim.Addr), tries int) float64 {
		run := func(k int) func() {
			return func() {
				m := sim.New(sim.Config{Cores: 1, ThreadsPerCore: 1, Costs: sim.DefaultCosts(), Seed: 1})
				do := region(m)
				a := m.Mem.AllocLine(8)
				m.Run(1, func(c *sim.Context) {
					for i := 0; i < k; i++ {
						do(c, a)
					}
				})
			}
		}
		least := math.Inf(1)
		for range tries {
			least = min(least, (testing.AllocsPerRun(5, run(2*n))-testing.AllocsPerRun(5, run(n)))/n)
		}
		return least
	}
	cases := []struct {
		name   string
		region func(m *sim.Machine) func(c *sim.Context, a sim.Addr)
		max    float64
		tries  int
	}{
		{"lockmod", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			r := NewLockModule(m, ModeTSXCond).NewRegion()
			return func(c *sim.Context, a sim.Addr) {
				r.Do(c, func(cs CS) { cs.Store(a, cs.Load(a)+1) })
			}
		}, 2, 1},
		{"atomic", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			s := tm.NewSystem(m, tm.TSX)
			return func(c *sim.Context, a sim.Addr) {
				s.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}, 0, 1},
		{"tl2", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			s := tm.NewSystem(m, tm.TL2)
			return func(c *sim.Context, a sim.Addr) {
				s.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}, 0, 3},
		{"storen", storenRegion(ModeTL2), 0, 3},
		{"storen-mutex", storenRegion(ModeMutex), 1, 3},
		{"lockset", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			el := tm.NewElider(htm.New(m), m, "lockset")
			locks := []*ssync.Mutex{ssync.NewMutex(m.Mem), ssync.NewMutex(m.Mem)}
			return func(c *sim.Context, a sim.Addr) {
				el.ElideSet(c, locks, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := perRegion(tc.region, tc.tries); got > tc.max {
				t.Errorf("%.2f allocations per region, want at most %g", got, tc.max)
			}
		})
	}
}

// storenRegion is a SendBatch-shaped lockmod region: a load, a run of ring
// stores built in the thread's own buffers, a read-modify-write and an
// in-section Compute.
func storenRegion(mode LockMode) func(m *sim.Machine) func(*sim.Context, sim.Addr) {
	return func(m *sim.Machine) func(*sim.Context, sim.Addr) {
		r := NewLockModule(m, mode).NewRegion()
		ring := m.Mem.AllocLine(16 * 8)
		return func(c *sim.Context, a sim.Addr) {
			r.Do(c, func(cs CS) {
				tail := cs.Load(a)
				addrs, vals := cs.Ctx().StoreBuf(10)
				for i := range 8 {
					addrs[i], vals[i] = ring+sim.Addr(8*((tail+uint64(i))%16)), tail+uint64(i)
				}
				addrs[8], vals[8] = a, tail+8
				addrs[9], vals[9] = ring+15*8, tail
				cs.StoreN(addrs, vals)
				cs.Store(a+8, cs.Load(a+8)+1)
				cs.Ctx().Compute(40)
			})
		}
	}
}
