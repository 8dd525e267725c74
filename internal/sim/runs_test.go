package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"tsxhpc/internal/probe"
)

// Runs (StoreN, ComputeN and the Compute-led ComputeStore, ComputeStoreN
// and ComputeSpinOn) must be indistinguishable from the loops of Store and
// Compute they replace: same Result, memory, cache statistics, probe
// counters, and the same conflict-hook calls in the same order at the same
// clocks. runProgram runs one seeded program either way.

// runsOutcome is everything a program run is compared on.
type runsOutcome struct {
	Res      Result
	Err      string
	Mem      []uint64
	Cache    CacheStats
	Probes   probe.Snapshot
	HookHash uint64
}

// runsShape selects a program: the seed draws every thread's operations;
// the flags pick the thread count and whether a jittering tick hook and the
// invariants are armed.
type runsShape struct {
	seed    int64
	threads int
	chaos   bool
}

// runsCycles are the Compute lengths a run is drawn from: zero, one, a
// short charge, exactly one quantum and just over one.
var runsCycles = [...]uint64{0, 1, 17, 160, 161}

// runProgram runs shape's program on a fresh machine of two cores with two
// HyperThreads each (threads t and t+2 are siblings), with runs when
// useRuns is set and with the loops they replace otherwise.
func runProgram(shape runsShape, useRuns bool) runsOutcome {
	cfg := Config{Cores: 2, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1,
		MaxCycles: 20_000_000, Invariants: shape.chaos}
	m := New(cfg)
	m.probes = &probes{set: probe.NewSet(), engine: "sim"}
	// A pool of words: two shared lines of four words each, so stores
	// repeat addresses and lines, plus one word per thread on a line of
	// its own, and a lock word.
	shared := m.Mem.AllocLine(2 * LineSize)
	pool := make([]Addr, 0, 12)
	for i := 0; i < 8; i++ {
		pool = append(pool, shared+Addr(i%4)*8+Addr(i/4)*LineSize)
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, m.Mem.AllocLine(8))
	}
	lock := m.Mem.AllocLine(8)

	out := runsOutcome{}
	h := fnv.New64a()
	var rec [32]byte
	m.ConflictHook = func(c *Context, line Addr, write bool) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(c.ID()))
		binary.LittleEndian.PutUint64(rec[8:], uint64(line))
		binary.LittleEndian.PutUint64(rec[16:], c.Now())
		rec[24] = 0
		if write {
			rec[24] = 1
		}
		h.Write(rec[:25])
	}
	if shape.chaos {
		jitter := rand.New(rand.NewSource(shape.seed))
		m.TickHook = func(c *Context, cyc uint64) uint64 { return uint64(jitter.Intn(4)) }
	}

	// Block/Wake: a thread blocks only while another is active, and a
	// finishing thread wakes every waiter, so no program deadlocks.
	var waiters []*Context
	finished := 0
	active := func() int { return shape.threads - finished - len(waiters) }

	body := func(c *Context) {
		r := rand.New(rand.NewSource(shape.seed*31 + int64(c.ID())))
		addrs := make([]Addr, 8)
		vals := make([]uint64, 8)
		draw := func() int {
			k := r.Intn(7)
			for i := 0; i < k; i++ {
				addrs[i], vals[i] = pool[r.Intn(len(pool))], r.Uint64()
			}
			return k
		}
		stores := func(k int) {
			if useRuns {
				a, v := c.StoreBuf(k)
				copy(a, addrs[:k])
				copy(v, vals[:k])
				c.StoreN(a, v)
				return
			}
			for i := 0; i < k; i++ {
				c.Store(addrs[i], vals[i])
			}
		}
		for op := 0; op < 24; op++ {
			switch r.Intn(9) {
			case 0, 1:
				stores(draw())
			case 2:
				cyc, n := runsCycles[r.Intn(len(runsCycles))], r.Intn(6)
				if useRuns {
					c.ComputeN(cyc, n)
				} else {
					for i := 0; i < n; i++ {
						c.Compute(cyc)
					}
				}
			case 3:
				pre, k := runsCycles[r.Intn(len(runsCycles))]*uint64(1+r.Intn(3)), draw()
				if useRuns {
					a, v := c.StoreBuf(k)
					copy(a, addrs[:k])
					copy(v, vals[:k])
					c.ComputeStoreN(pre, a, v)
				} else {
					c.Compute(pre)
					for i := 0; i < k; i++ {
						c.Store(addrs[i], vals[i])
					}
				}
			case 4:
				// A lock: acquire with a Compute-led spin, store, release
				// with a Compute-led store.
				pre, gap, tries := runsCycles[r.Intn(len(runsCycles))], uint64(r.Intn(20)), r.Intn(30)
				var got bool
				if useRuns {
					got = c.ComputeSpinOn(pre, lock, true, gap, tries)
				} else {
					c.Compute(pre)
					got = c.SpinOn(lock, true, gap, tries)
				}
				if !got {
					continue
				}
				stores(draw())
				pre = runsCycles[r.Intn(len(runsCycles))]
				if useRuns {
					c.ComputeStore(pre, lock, 0)
				} else {
					c.Compute(pre)
					c.Store(lock, 0)
				}
			case 5:
				c.Compute(uint64(r.Intn(700)))
			case 6:
				c.Load(pool[r.Intn(len(pool))])
			case 7:
				if active() >= 2 {
					waiters = append(waiters, c)
					c.Block()
				}
			case 8:
				if len(waiters) > 0 {
					w := waiters[0]
					waiters = waiters[1:]
					c.Wake(w, c.Now()+uint64(r.Intn(300)))
				}
			}
		}
		finished++
		for _, w := range waiters {
			c.Wake(w, c.Now())
		}
		waiters = waiters[:0]
	}
	res, err := m.RunE(shape.threads, body)
	out.Res = res
	out.Res.Switches = 0 // a host cost, not part of the schedule
	if err != nil {
		out.Err = err.Error()
	}
	for _, a := range append(pool, lock) {
		out.Mem = append(out.Mem, m.Mem.ReadRaw(a))
	}
	out.Cache = m.CacheStats()
	out.Probes = m.ProbeSnapshot()
	out.HookHash = h.Sum64()
	return out
}

func checkRuns(t *testing.T, shape runsShape) {
	t.Helper()
	want := runProgram(shape, false)
	got := runProgram(shape, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: runs differ from the loops they replace:\n got %+v\nwant %+v", shape, got, want)
	}
}

// TestRunsMatchLoops runs a fixed set of programs over every thread count,
// with and without chaos.
func TestRunsMatchLoops(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for threads := 2; threads <= 4; threads++ {
			for _, chaos := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed%d/t%d/chaos=%v", seed, threads, chaos), func(t *testing.T) {
					checkRuns(t, runsShape{seed: seed, threads: threads, chaos: chaos})
				})
			}
		}
	}
}

// FuzzRuns checks random programs the same way.
func FuzzRuns(f *testing.F) {
	f.Add(int64(1), uint8(4), true)
	f.Add(int64(7), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, threads uint8, chaos bool) {
		checkRuns(t, runsShape{seed: seed, threads: 2 + int(threads%3), chaos: chaos})
	})
}
