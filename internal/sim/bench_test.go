package sim

import "testing"

// Scheduler micro-benchmarks. These isolate the three costs the
// continuation scheduler is built around — the coroutine handoff itself,
// the batched no-switch fast path, and run-queue maintenance under
// contention — so a regression in any one of them is visible before it
// washes out into the end-to-end hostbench metrics scripts/bench_ratchet.sh
// gates on.
//
// Configs are spelled out rather than taken from DefaultConfig so the
// benchmarks are immune to process-wide RunDefaults (fault injection,
// watchdogs) that tests may have installed.

func benchConfig(cores, threadsPerCore int) Config {
	return Config{Cores: cores, ThreadsPerCore: threadsPerCore, Costs: DefaultCosts(), Seed: 1}
}

// BenchmarkHandoffPingPong: two contexts on distinct cores alternate
// single-cycle events, so every scheduling point hands the core over.
// One op is one event on one side — i.e. one coroutine switch plus the
// run-queue swap around it. This is the price the direct context→context
// handoff pays; it must stay an order of magnitude below a Go-scheduler
// crossing.
func BenchmarkHandoffPingPong(b *testing.B) {
	m := New(benchConfig(2, 1))
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(2, func(c *Context) {
		for i := 0; i < b.N/2; i++ {
			c.Compute(1)
		}
	})
}

// BenchmarkSameContextBatch: a single context holds the strict clock
// minimum forever, so every maybeYield takes the no-switch fast path (one
// comparison against the cached queue minimum). One op is one batched
// event — the floor for all event processing.
func BenchmarkSameContextBatch(b *testing.B) {
	m := New(benchConfig(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(1, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Compute(1)
		}
	})
}

// BenchmarkRunQueueContended: sixteen contexts with staggered event costs
// keep the run queue full and make most scheduling points a handoff, each
// one leaf replacement plus a root walk in the tournament tree
// (replaceTop), at realistic occupancy (the full catalog runs 4-16
// threads). One op is one event.
func BenchmarkRunQueueContended(b *testing.B) {
	const threads = 16
	m := New(benchConfig(8, 2))
	per := b.N/threads + 1
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(threads, func(c *Context) {
		cyc := uint64(1 + c.ID()%7)
		for i := 0; i < per; i++ {
			c.Compute(cyc)
		}
	})
}

// BenchmarkComputeQuanta: sixteen contexts on 8 cores × 2 HyperThreads
// loop Compute(2000), thirteen quanta a call, so nearly every quantum
// boundary finds another context due. A context that parks mid-Compute
// waits at its due key, and whichever context hands the core over charges
// all of its remaining quanta there in one span, so a parked Compute costs
// one charge and the switch back to its context rather than a charge and
// a leaf replay per quantum. One op is one event.
func BenchmarkComputeQuanta(b *testing.B) {
	const threads, work = 16, 2000
	const quanta = (work + computeQuantum - 1) / computeQuantum
	m := New(benchConfig(8, 2))
	per := b.N/(threads*quanta) + 1
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(threads, func(c *Context) {
		for i := 0; i < per; i++ {
			c.Compute(work)
		}
	})
}

// BenchmarkHotPathProbesOff / BenchmarkHotPathProbesOn bracket the probe
// layer's cost on the hottest path (charge via the batched no-switch
// Compute): Off is the production configuration, whose only addition is one
// nil test; On adds the per-cycle phase attribution. The CI guard
// (scripts/probe_overhead.sh) asserts the pair stays within a tight band of
// each other, which bounds the disarmed check from above; absolute
// regressions are caught by hostbench under scripts/bench_ratchet.sh.
func benchHotPath(b *testing.B, metrics bool) {
	cfg := benchConfig(1, 1)
	cfg.Metrics = metrics
	cfg.Label = "bench"
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(1, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Compute(1)
		}
	})
}

func BenchmarkHotPathProbesOff(b *testing.B) { benchHotPath(b, false) }
func BenchmarkHotPathProbesOn(b *testing.B)  { benchHotPath(b, true) }

// benchScaleConfig maps a runnable-context count onto the smallest topology
// that carries it: the paper machine up to 8 threads, then 8-core sockets,
// then 8-way hardware threading for the 512-context extreme.
func benchScaleConfig(n int) Config {
	cfg := Config{Sockets: 1, Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1}
	switch {
	case n <= 8:
	case n <= 64:
		cfg.Sockets, cfg.Cores = 4, 8
	default:
		cfg.Sockets, cfg.Cores, cfg.ThreadsPerCore = 8, 8, 8
	}
	return cfg
}

// BenchmarkRunQueueN8/N64/N512: full-machine events/s with N runnable
// contexts at staggered event costs, so nearly every scheduling point is a
// real handoff through the run queue. N=8 is the paper machine, N=64 a
// NUMA scale-out, N=512 the scheduler's stress ceiling; together they show
// how per-event cost grows with occupancy (O(log N) on the tournament tree,
// where the flat rescan was O(N) — see the SchedTree / SchedFlatRescan pair
// for the isolated data-structure comparison).
func benchRunQueueN(b *testing.B, n int) {
	m := New(benchScaleConfig(n))
	per := b.N/n + 1
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(n, func(c *Context) {
		cyc := uint64(1 + c.ID()%7)
		for i := 0; i < per; i++ {
			c.Compute(cyc)
		}
	})
}

func BenchmarkRunQueueN8(b *testing.B)   { benchRunQueueN(b, 8) }
func BenchmarkRunQueueN64(b *testing.B)  { benchRunQueueN(b, 64) }
func BenchmarkRunQueueN512(b *testing.B) { benchRunQueueN(b, 512) }

// The SchedTree/SchedFlatRescan pair isolates the run-queue data structure
// from coroutine switching: one op is one handoff's queue work — take the
// minimum-key context, advance its key, reinsert. SchedTree builds the
// machine's real tree through attach and drives popMin/qpush; no carriers
// are started. SchedFlatRescan replays the original scheduler's algorithm
// (scan every runnable entry for the minimum).
// scripts/bench_ratchet.sh gates on the N=512 pair staying >=5x apart.
func benchSchedTree(b *testing.B, n int) {
	m := New(benchScaleConfig(n))
	m.attach(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.popMin()
		c.key += uint64(1+c.id%7) << keyIDBits
		m.qpush(c)
	}
}

func benchSchedFlatRescan(b *testing.B, n int) {
	type ent struct {
		key uint64
		ctx *Context
	}
	m := New(benchConfig(1, 1))
	q := make([]ent, n)
	for i := range q {
		q[i] = ent{key: uint64(i), ctx: &Context{m: m, id: i}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		min := 0
		for j := 1; j < n; j++ {
			if q[j].key < q[min].key {
				min = j
			}
		}
		c := q[min].ctx
		c.key = q[min].key + uint64(1+c.id%7)<<keyIDBits
		q[min].key = c.key
	}
}

func BenchmarkSchedTreeN8(b *testing.B)         { benchSchedTree(b, 8) }
func BenchmarkSchedTreeN64(b *testing.B)        { benchSchedTree(b, 64) }
func BenchmarkSchedTreeN512(b *testing.B)       { benchSchedTree(b, 512) }
func BenchmarkSchedFlatRescanN8(b *testing.B)   { benchSchedFlatRescan(b, 8) }
func BenchmarkSchedFlatRescanN64(b *testing.B)  { benchSchedFlatRescan(b, 64) }
func BenchmarkSchedFlatRescanN512(b *testing.B) { benchSchedFlatRescan(b, 512) }

// BenchmarkCoherencePingPong: four contexts on distinct cores take turns
// at a CAS probe of one lock line, the coherence traffic of a contended
// spinlock. Each probe is a write miss whose only holder is the previous
// prober, so every op reads the presence directory, invalidates one remote
// copy, installs the line and updates the directory twice. The probes call
// the cache model directly rather than through Context.RMW, so the number
// isolates the L1 and directory work from scheduling and coroutine
// switches. One op is one probe.
func BenchmarkCoherencePingPong(b *testing.B) {
	const threads = 4
	m := New(benchConfig(threads, 1))
	line := LineOf(m.Mem.Alloc(8))
	m.attach(threads)
	probe := func(i int) {
		c := m.ctxs[i%threads]
		c.cache.access(c, line, true, false)
	}
	probe(0) // the first install sizes the directory
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		probe(i)
	}
	b.StopTimer()
	if got := m.CacheStats().Invalidations; got != uint64(b.N) {
		b.Fatalf("%d invalidations over %d probes: not every probe ping-pongs", got, b.N)
	}
}
