package tm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
)

// TestSpinGoldensElision pins the schedule of TSX lock elision through its
// lock-busy waits and fallback acquisitions: every charge is folded into a
// hash through the TickHook (thread id, clock before the charge, requested
// cycles) with seeded jitter injected, as internal/ssync's spin goldens do.
// Some regions make a system call, which always aborts and sends the thread
// to the fallback lock; the lock holder's store and long critical section
// then make concurrent elisions see the lock busy and wait for it, some
// until the wait's probe budget runs out. One variant
// arms the machine's inline invariants, whose commit-time write-set check
// consults the in-flight access line.
func TestSpinGoldensElision(t *testing.T) {
	cases := []struct {
		name       string
		invariants bool
		want       string
	}{
		{"tsx-8t", false, "c7fe7aa791f05084 charges=677441 cycles=1964039 events=677441 commits=296 fallbacks=184 lockbusy=379"},
		{"tsx-8t-invariants", true, "c7fe7aa791f05084 charges=677441 cycles=1964039 events=677441 commits=296 fallbacks=184 lockbusy=379"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.New(sim.Config{Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(),
				Seed: 1, Invariants: tc.invariants})
			s := NewSystem(m, TSX)
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
			const slots, rounds = 16, 60
			arr := m.Mem.AllocLine(slots * sim.LineSize)
			res := m.Run(8, func(c *sim.Context) {
				for r := 0; r < rounds; r++ {
					i := sim.Addr(c.Rand.Intn(slots)) * sim.LineSize
					j := sim.Addr(c.Rand.Intn(slots)) * sim.LineSize
					sys := c.Rand.Intn(10) == 0
					work := uint64(c.Rand.Int63n(300))
					s.Atomic(c, func(tx Tx) {
						tx.Store(arr+i, tx.Load(arr+i)+1)
						if sys {
							tx.Ctx().Syscall(0)
							tx.Ctx().Compute(20_000) // a long fallback hold
						}
						tx.Ctx().Compute(work)
						tx.Store(arr+j, tx.Load(arr+j)+1)
					})
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
			st := s.HTM.Stats
			got := fmt.Sprintf("%016x charges=%d cycles=%d events=%d commits=%d fallbacks=%d lockbusy=%d",
				h.Sum64(), charges, res.Cycles, res.Events, st.Commits, st.Fallback, st.Aborts[htm.LockBusy])
			if got != tc.want {
				t.Errorf("spin schedule moved:\n got %s\nwant %s", got, tc.want)
			}
			if st.Fallback == 0 || st.Aborts[htm.LockBusy] == 0 {
				t.Errorf("region misses a path: %d fallbacks, %d lock-busy aborts", st.Fallback, st.Aborts[htm.LockBusy])
			}
		})
	}
}
