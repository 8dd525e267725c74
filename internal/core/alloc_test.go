package core

import (
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// TestElisionAllocs guards the host allocations one elided critical section
// costs on each elision entry point: the locking module's Region.Do, the
// TSX System.Atomic and a lockset ElideSet. One thread runs n and then 2n
// regions that all commit on their first try; the difference between the
// two runs' allocation counts, divided by n, is the per-region cost, free
// of the machine's setup. The ceilings are the counts measured when the
// locking module still ran its own retry loop. The "atomic" and "tl2"
// ceilings also hold the recycled per-thread transaction records of htm and
// stm: without those pools a region costs 6 more allocations. A TL2 region
// boxes its Tx once, and the longer run pays one more allocation in all (it
// reads 1.02), hence its fractional ceiling.
func TestElisionAllocs(t *testing.T) {
	const n = 64
	perRegion := func(region func(m *sim.Machine) func(c *sim.Context, a sim.Addr)) float64 {
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
		return (testing.AllocsPerRun(5, run(2*n)) - testing.AllocsPerRun(5, run(n))) / n
	}
	cases := []struct {
		name   string
		region func(m *sim.Machine) func(c *sim.Context, a sim.Addr)
		max    float64
	}{
		{"lockmod", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			r := NewLockModule(m, ModeTSXCond).NewRegion()
			return func(c *sim.Context, a sim.Addr) {
				r.Do(c, func(cs CS) { cs.Store(a, cs.Load(a)+1) })
			}
		}, 2},
		{"atomic", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			s := tm.NewSystem(m, tm.TSX)
			return func(c *sim.Context, a sim.Addr) {
				s.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}, 0},
		{"tl2", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			s := tm.NewSystem(m, tm.TL2)
			return func(c *sim.Context, a sim.Addr) {
				s.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}, 1.1},
		{"lockset", func(m *sim.Machine) func(*sim.Context, sim.Addr) {
			el := tm.NewElider(htm.New(m), m, "lockset")
			locks := []*ssync.Mutex{ssync.NewMutex(m.Mem), ssync.NewMutex(m.Mem)}
			return func(c *sim.Context, a sim.Addr) {
				el.ElideSet(c, locks, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := perRegion(tc.region); got > tc.max {
				t.Errorf("%.2f allocations per region, want at most %g", got, tc.max)
			}
		})
	}
}
