package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// Schedule goldens: every charge the engine makes is folded into a hash
// through the TickHook, one record per charge of (thread id, clock before
// the charge, requested cycles, whether the HyperThread sibling is
// consuming the core). Which thread charges what, at which virtual time and
// under which sibling state is the whole simulated schedule, so a hash that
// stays put proves an engine change moved no result anywhere, not just in
// the final makespan. The hook also injects seeded jitter the way fault
// injection does: the jitter stream is drawn in charge order, so any
// reordering of charges compounds into different clocks.
//
// The pinned values were taken before Compute quanta were charged in
// place; they hold on every coroutine backend (CI runs this file under
// -race and -tags nocorolink, both on the iter.Pull slot).

// scheduleRegion is one workload the goldens pin.
type scheduleRegion struct {
	name string
	body func(m *Machine) func(*Context)
}

// computeHeavy: multi-quantum Compute of seeded length, with a private
// load now and then, so queued threads often sit between quanta when the
// core changes hands. HT sibling pairs charge under each other's state.
func computeHeavy(m *Machine) func(*Context) {
	priv := m.Mem.AllocLine(64 * LineSize)
	return func(c *Context) {
		for i := 0; i < 60; i++ {
			c.Compute(uint64(c.Rand.Int63n(1200)))
			if i%7 == 0 {
				c.Load(priv + Addr(c.ID()%64)*LineSize)
			}
		}
	}
}

// blockWakeConvoy: a lock handed from releaser to the longest waiter by
// Block/Wake, with multi-quantum work inside and outside the critical
// section, so hand-offs happen at Block and finish while others have
// quanta pending.
func blockWakeConvoy(m *Machine) func(*Context) {
	counter := m.Mem.AllocLine(8)
	held := false
	var waiters []*Context
	return func(c *Context) {
		for r := 0; r < 12; r++ {
			if held {
				waiters = append(waiters, c)
				c.Block()
			} else {
				held = true
			}
			c.Store(counter, c.Load(counter)+1)
			c.Compute(uint64(c.Rand.Int63n(500)))
			if len(waiters) > 0 {
				next := waiters[0]
				waiters = waiters[1:]
				c.Wake(next, c.Now())
			} else {
				held = false
			}
			c.Compute(uint64(c.Rand.Int63n(900)))
		}
	}
}

// contendedLock: a test-and-set spin lock on one shared word, with a
// multi-quantum critical section and seeded backoff between attempts.
func contendedLock(m *Machine) func(*Context) {
	lock := m.Mem.AllocLine(8)
	data := m.Mem.AllocLine(8)
	return func(c *Context) {
		for r := 0; r < 10; r++ {
			for {
				if old, _ := c.RMW(lock, func(uint64) uint64 { return 1 }); old == 0 {
					break
				}
				c.Compute(uint64(1 + c.Rand.Int63n(300)))
			}
			c.Store(data, c.Load(data)+1)
			c.Compute(uint64(c.Rand.Int63n(700)))
			c.Store(lock, 0)
			c.Compute(uint64(c.Rand.Int63n(400)))
		}
	}
}

var scheduleRegions = []scheduleRegion{
	{"compute", computeHeavy},
	{"convoy", blockWakeConvoy},
	{"lock", contendedLock},
}

// scheduleTopologies: 2, 5 and 8 threads on the paper machine (5 leaves
// one HT pair half-filled), and 16 threads on two 4-core sockets.
var scheduleTopologies = []struct {
	threads, sockets int
}{{2, 1}, {5, 1}, {8, 1}, {16, 2}}

// scheduleTrace runs one region with every charge recorded and returns the
// schedule hash, the number of charges and the region's result.
func scheduleTrace(r scheduleRegion, threads, sockets int) (uint64, int, Result) {
	cfg := Config{Sockets: sockets, Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1}
	m := New(cfg)
	h := fnv.New64a()
	jitter := rand.New(rand.NewSource(99))
	charges := 0
	var rec [4]uint64
	buf := make([]byte, 8*len(rec))
	m.TickHook = func(c *Context, cyc uint64) uint64 {
		busy := uint64(0)
		if s := c.sibling; s != nil && s.consumesCore() {
			busy = 1
		}
		rec = [4]uint64{uint64(c.id), c.clock, cyc, busy}
		for i, v := range rec {
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
	res := m.Run(threads, r.body(m))
	return h.Sum64(), charges, res
}

func TestScheduleGoldens(t *testing.T) {
	want := map[string]string{
		"compute/2":  "0426130548b38594 charges=532 cycles=36894 events=532",
		"compute/5":  "f6cfac305c4f66f7 charges=1365 cycles=59273 events=1365",
		"compute/8":  "e8748b13a3993ba6 charges=2118 cycles=63045 events=2118",
		"compute/16": "ceb8413646a64c1a charges=4322 cycles=66250 events=4322",
		"convoy/2":   "feaa77c488441fd4 charges=160 cycles=9781 events=160",
		"convoy/5":   "6dd03f0dd25ca11f charges=419 cycles=21477 events=419",
		"convoy/8":   "f25d3acb90a1d662 charges=661 cycles=33210 events=661",
		"convoy/16":  "f471fd4eb44b4939 charges=1363 cycles=74507 events=1363",
		"lock/2":     "5797e9f0bbe29803 charges=272 cycles=10613 events=272",
		"lock/5":     "d937370a5d06cfcf charges=1465 cycles=30230 events=1465",
		"lock/8":     "93c1852bebfae06f charges=3487 cycles=61071 events=3487",
		"lock/16":    "81e084f2e183f25c charges=12340 cycles=143012 events=12340",
	}
	for _, r := range scheduleRegions {
		for _, tp := range scheduleTopologies {
			name := fmt.Sprintf("%s/%d", r.name, tp.threads)
			t.Run(name, func(t *testing.T) {
				sum, charges, res := scheduleTrace(r, tp.threads, tp.sockets)
				got := fmt.Sprintf("%016x charges=%d cycles=%d events=%d", sum, charges, res.Cycles, res.Events)
				if got != want[name] {
					t.Errorf("schedule moved:\n got %s\nwant %s", got, want[name])
				}
			})
		}
	}
}
