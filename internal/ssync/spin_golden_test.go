package ssync

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"tsxhpc/internal/sim"
)

// Spin-schedule goldens: every charge the engine makes is folded into a
// hash through the TickHook, one record per charge of (thread id, clock
// before the charge, requested cycles), with seeded jitter injected the way
// fault injection does (internal/sim/schedule_test.go pins the engine's own
// regions the same way). The regions here drive the lock spin waits: a
// contended Mutex through spin success, spin exhaustion into a futex park
// and Unlock's lost-wakeup hand-off, TryLock and the SpinLock, and a region
// with the machine's inline invariants armed. A hash that stays put proves
// a change to how spins are scheduled moved no charge anywhere.

// spinTrace arms the recording TickHook on m and returns a function that
// renders the hash and charge count once the region has run.
func spinTrace(m *sim.Machine) func() string {
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
	return func() string { return fmt.Sprintf("%016x charges=%d", h.Sum64(), charges) }
}

func spinMachine(sockets int, invariants bool) *sim.Machine {
	return sim.New(sim.Config{Sockets: sockets, Cores: 4, ThreadsPerCore: 2,
		Costs: sim.DefaultCosts(), Seed: 1, Invariants: invariants})
}

// mutexCounts classifies every release of a contended Mutex: a hand-off to
// a parked waiter (its acquirer exhausted the spin and futex-parked), a
// lost-wakeup hand-off (the waiter enqueued inside the word-clearing store's
// scheduling window, so the word is set again when Unlock returns), or a
// plain release that a spinner then acquires by CAS.
type mutexCounts struct{ handoffs, lost, plain int }

// contendedMutex runs `rounds` lock/unlock rounds per thread on one Mutex:
// seeded short critical sections with an occasional long one that pushes
// the spinners past their budget, and seeded work between rounds.
func contendedMutex(m *sim.Machine, threads, rounds int) (sim.Result, mutexCounts) {
	l := NewMutex(m.Mem)
	data := m.Mem.AllocLine(8)
	var n mutexCounts
	res := m.Run(threads, func(c *sim.Context) {
		for r := 0; r < rounds; r++ {
			l.Lock(c)
			c.Store(data, c.Load(data)+1)
			cs := uint64(c.Rand.Int63n(300))
			if c.Rand.Intn(12) == 0 {
				cs += 30_000
			}
			c.Compute(cs)
			waited := len(l.waiters) > 0
			l.Unlock(c)
			switch {
			case waited:
				n.handoffs++
			case m.Mem.ReadRaw(l.Addr) != 0:
				n.lost++
			default:
				n.plain++
			}
			c.Compute(uint64(c.Rand.Int63n(2000)))
		}
	})
	if got, want := m.Mem.ReadRaw(data), uint64(threads*rounds); got != want {
		panic(fmt.Sprintf("mutex lost updates: counter %d, want %d", got, want))
	}
	return res, n
}

func TestSpinGoldensMutex(t *testing.T) {
	cases := []struct {
		name                     string
		threads, sockets, rounds int
		invariants               bool
		want                     string
	}{
		{"8t", 8, 1, 120, false, "c8e122e11630f028 charges=605606 cycles=3844449 events=605606 handoffs=116 lost=5 plain=839"},
		{"16t-2socket", 16, 2, 60, false, "a7fd7b92a45384a7 charges=889664 cycles=4477685 events=889664 handoffs=282 lost=2 plain=676"},
		{"8t-invariants", 8, 1, 40, true, "b914d3472b14d3ab charges=141662 cycles=907212 events=141662 handoffs=24 lost=1 plain=295"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := spinMachine(tc.sockets, tc.invariants)
			trace := spinTrace(m)
			res, n := contendedMutex(m, tc.threads, tc.rounds)
			got := fmt.Sprintf("%s cycles=%d events=%d handoffs=%d lost=%d plain=%d",
				trace(), res.Cycles, res.Events, n.handoffs, n.lost, n.plain)
			if got != tc.want {
				t.Errorf("spin schedule moved:\n got %s\nwant %s", got, tc.want)
			}
			if n.handoffs == 0 || n.lost == 0 || n.plain == 0 {
				t.Errorf("region misses a path: %+v", n)
			}
		})
	}
}

// TestSpinGoldensTryLock: Mutex.TryLock with a Lock fallback, and the
// SpinLock's Lock and TryLock, on two locks that share a line, so every
// probe kind contends with the others' stores.
func TestSpinGoldensTryLock(t *testing.T) {
	m := spinMachine(1, false)
	trace := spinTrace(m)
	line := m.Mem.AllocLine(16)
	mu := NewMutexAt(line)
	sl := &SpinLock{Addr: line + 8}
	data := m.Mem.AllocLine(16) // mu guards data, sl guards data+8
	var tryOK, tryFail, spinTryOK, spinTryFail int
	res := m.Run(8, func(c *sim.Context) {
		for r := 0; r < 80; r++ {
			switch c.Rand.Intn(3) {
			case 0:
				if mu.TryLock(c) {
					tryOK++
				} else {
					tryFail++
					mu.Lock(c)
				}
				c.Store(data, c.Load(data)+1)
				c.Compute(uint64(c.Rand.Int63n(400)))
				mu.Unlock(c)
			case 1:
				sl.Lock(c)
				c.Store(data+8, c.Load(data+8)+1)
				c.Compute(uint64(c.Rand.Int63n(400)))
				sl.Unlock(c)
			default:
				if sl.TryLock(c) {
					spinTryOK++
					c.Store(data+8, c.Load(data+8)+1)
					c.Compute(uint64(c.Rand.Int63n(400)))
					sl.Unlock(c)
				} else {
					spinTryFail++
				}
			}
			c.Compute(uint64(c.Rand.Int63n(600)))
		}
	})
	got := fmt.Sprintf("%s cycles=%d events=%d try=%d/%d spintry=%d/%d",
		trace(), res.Cycles, res.Events, tryOK, tryFail, spinTryOK, spinTryFail)
	const want = "9d1d8ec4776b05ba charges=43148 cycles=150634 events=43148 try=57/146 spintry=19/203"
	if got != want {
		t.Errorf("spin schedule moved:\n got %s\nwant %s", got, want)
	}
	if tryOK == 0 || tryFail == 0 || spinTryOK == 0 || spinTryFail == 0 {
		t.Errorf("region misses a path: try %d/%d spintry %d/%d", tryOK, tryFail, spinTryOK, spinTryFail)
	}
}
