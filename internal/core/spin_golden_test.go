package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// TestSpinGoldensLockBusy pins the schedule of the lock-busy waits of
// tm.Elider under both its policies: lockset elision (ElideSet over two
// locks) and the locking module's elided regions (tm.ModulePolicy), the
// latter also with monitor waits that restart the elision. Every charge is
// folded into a hash through the TickHook (thread id, clock before the
// charge, requested cycles) with seeded jitter injected, as internal/ssync's
// spin goldens do. Regions that make a system call abort for good and hold
// the fallback locks for a long stretch, so concurrent elisions find a lock
// word set and wait for it, some until the wait's probe budget runs out.
func TestSpinGoldensLockBusy(t *testing.T) {
	run := func(t *testing.T, do func(m *sim.Machine) (func(c *sim.Context, i, j sim.Addr, sys bool, work uint64), *htm.Runtime), want string) {
		m := sim.New(sim.Config{Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1})
		h := fnv.New64a()
		jitter := rand.New(rand.NewSource(99))
		charges := 0
		buf := make([]byte, 24)
		m.TickHook = func(c *sim.Context, cyc uint64) uint64 {
			for i, v := range [3]uint64{uint64(c.ID()), c.Now(), cyc} {
				for b := 0; b < 8; b++ {
					buf[8*i+b] = byte(v >> (8 * b))
				}
			}
			h.Write(buf)
			charges++
			if jitter.Intn(16) == 0 {
				return uint64(1 + jitter.Intn(40))
			}
			return 0
		}
		region, rt := do(m)
		const slots, rounds = 16, 50
		arr := m.Mem.AllocLine(slots * sim.LineSize)
		res := m.Run(8, func(c *sim.Context) {
			for r := 0; r < rounds; r++ {
				i := arr + sim.Addr(c.Rand.Intn(slots))*sim.LineSize
				j := arr + sim.Addr(c.Rand.Intn(slots))*sim.LineSize
				region(c, i, j, c.Rand.Intn(10) == 0, uint64(c.Rand.Int63n(300)))
				c.Compute(uint64(c.Rand.Int63n(800)))
			}
		})
		var sum uint64
		for k := 0; k < slots; k++ {
			sum += m.Mem.ReadRaw(arr + sim.Addr(k)*sim.LineSize)
		}
		if sum != 2*8*rounds {
			t.Fatalf("slots sum to %d, want %d", sum, 2*8*rounds)
		}
		st := rt.Stats
		got := fmt.Sprintf("%016x charges=%d cycles=%d events=%d commits=%d fallbacks=%d lockbusy=%d",
			h.Sum64(), charges, res.Cycles, res.Events, st.Commits, st.Fallback, st.Aborts[htm.LockBusy])
		if got != want {
			t.Errorf("spin schedule moved:\n got %s\nwant %s", got, want)
		}
		if st.Fallback == 0 || st.Aborts[htm.LockBusy] == 0 {
			t.Errorf("region misses a path: %d fallbacks, %d lock-busy aborts", st.Fallback, st.Aborts[htm.LockBusy])
		}
	}
	t.Run("lockset", func(t *testing.T) {
		run(t, func(m *sim.Machine) (func(*sim.Context, sim.Addr, sim.Addr, bool, uint64), *htm.Runtime) {
			rt := htm.New(m)
			el := tm.NewElider(rt, m, "lockset")
			locks := []*ssync.Mutex{ssync.NewMutex(m.Mem), ssync.NewMutex(m.Mem)}
			return func(c *sim.Context, i, j sim.Addr, sys bool, work uint64) {
				el.ElideSet(c, locks, func(tx tm.Tx) {
					tx.Store(i, tx.Load(i)+1)
					if sys {
						tx.Ctx().Syscall(0)
						tx.Ctx().Compute(20_000) // a long fallback hold
					}
					tx.Ctx().Compute(work)
					tx.Store(j, tx.Load(j)+1)
				})
			}, rt
		}, "06af7d57f6fc55bf charges=455961 cycles=1421210 events=455961 commits=202 fallbacks=198 lockbusy=388")
	})
	t.Run("lockmod", func(t *testing.T) {
		run(t, func(m *sim.Machine) (func(*sim.Context, sim.Addr, sim.Addr, bool, uint64), *htm.Runtime) {
			lm := NewLockModule(m, ModeTSXCond)
			r := lm.NewRegion()
			return func(c *sim.Context, i, j sim.Addr, sys bool, work uint64) {
				r.Do(c, func(cs CS) {
					cs.Store(i, cs.Load(i)+1)
					if sys {
						cs.Ctx().Syscall(0)
						cs.Ctx().Compute(20_000) // a long fallback hold
					}
					cs.Ctx().Compute(work)
					cs.Store(j, cs.Load(j)+1)
				})
			}, lm.RT
		}, "c765211d098444a4 charges=585187 cycles=1566979 events=585187 commits=336 fallbacks=64 lockbusy=186")
	})
	// The monitor variants add a bounded buffer in front of the increments:
	// even threads produce, odd threads consume, each waiting while the
	// level sits at its bound and signalling the other side after its
	// step. Waits thus commit partial results and restart (tsx.cond parks
	// on the futex, tsx.busywait polls), and fallback holders wait in place.
	for _, tc := range []struct {
		mode LockMode
		want string
	}{
		{ModeTSXCond, "a27d0455cfc4ebf9 charges=1130908 cycles=2651072 events=1130908 commits=347 fallbacks=258 lockbusy=1227"},
		{ModeTSXBusyWait, "12a2065a6a5ecd9f charges=989262 cycles=2849045 events=989262 commits=4267 fallbacks=354 lockbusy=2087"},
	} {
		mode := tc.mode
		t.Run("lockmod-wait/"+mode.String(), func(t *testing.T) {
			run(t, func(m *sim.Machine) (func(*sim.Context, sim.Addr, sim.Addr, bool, uint64), *htm.Runtime) {
				lm := NewLockModule(m, mode)
				r := lm.NewRegion()
				level := m.Mem.AllocLine(8)
				notFull, notEmpty := lm.NewCond(), lm.NewCond()
				const bound = 2
				return func(c *sim.Context, i, j sim.Addr, sys bool, work uint64) {
					produce := c.ID()%2 == 0
					r.Do(c, func(cs CS) {
						if produce {
							for cs.Load(level) == bound {
								cs.Wait(notFull)
							}
							cs.Store(level, cs.Load(level)+1)
							cs.Signal(notEmpty)
						} else {
							for cs.Load(level) == 0 {
								cs.Wait(notEmpty)
							}
							cs.Store(level, cs.Load(level)-1)
							cs.Broadcast(notFull)
						}
						cs.Store(i, cs.Load(i)+1)
						if sys {
							cs.Ctx().Syscall(0)
							cs.Ctx().Compute(20_000)
						}
						cs.Ctx().Compute(work)
						cs.Store(j, cs.Load(j)+1)
					})
				}, lm.RT
			}, tc.want)
		})
	}
}
