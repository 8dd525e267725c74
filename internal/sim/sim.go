// Package sim implements a deterministic discrete-event multicore simulator.
//
// The simulator is the hardware substitute for the Intel 4th Generation Core
// processor used in the SC'13 Intel TSX evaluation (Yoo, Hughes, Lai, Rajwar).
// It models a small chip-multiprocessor — by default 4 cores with 2
// HyperThreads per core — with per-thread virtual cycle clocks, a 32 KB 8-way
// L1 data cache per core, and cache-line-granularity sharing costs.
//
// Simulated threads are coroutines (continuation carriers), and exactly one
// runs at a time: the runnable context with the smallest virtual clock always
// holds the core, so every execution is deterministic and race-free by
// construction while still exhibiting genuine fine-grained interleaving of
// memory accesses. Handoffs between contexts are single direct stack
// switches on the runtime's raw coroutine primitive (see coro.go) — the
// running context switches straight to its successor without bouncing
// through a dispatcher, and the Go scheduler, channels, futexes and
// run-queue locks never appear on the hot path. The Run caller's goroutine
// drives only region start, teardown and drain. A context that strictly
// holds the minimum clock batches consecutive events without leaving its
// carrier at all (see Context.maybeYield), and a queued context whose next
// event is only a Compute quantum or a lock-spin probe step never gets the
// core back for it: whoever hands the core over takes that step in place
// (see Machine.settle and Context.SpinOn). A queued context's pending
// Compute quanta are one such step: it waits in the run queue at the key
// its last quantum ends on and charges them all there at once, unless a
// change in its HyperThread sibling's state moves that key first (see
// Context.dueKey and Machine.setState).
// All timing is expressed in virtual cycles; wall-clock time is never used
// for results.
//
// Higher layers build the machine model on top of the hooks exposed here:
// package htm installs the transactional conflict/eviction/syscall hooks to
// emulate Intel TSX, package ssync builds locks, condition variables and
// barriers from Block/Wake, and package stm implements the TL2 software
// transactional memory baseline.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Addr is a simulated byte address. Shared mutable state that participates
// in synchronization lives in the simulated Memory and is addressed by Addr.
type Addr uint64

// LineSize is the cache line size in bytes, matching the evaluation hardware.
const LineSize = 64

// LineOf returns the cache line base address containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// Config describes the simulated machine.
type Config struct {
	// Sockets is the number of CPU packages. 0 means 1 — the paper's
	// single-socket part. The machine's total core count is Sockets × Cores;
	// line transfers that cross a socket boundary and misses served by a
	// remote socket's memory controller use the NUMA entries of Costs
	// (RemoteTransfer, RemoteMiss, DirHop). At one socket those entries are
	// never consulted, so single-socket schedules are unchanged.
	Sockets int
	// Cores is the number of physical cores per socket (paper: 4, one
	// socket).
	Cores int
	// ThreadsPerCore is the number of hardware threads per core (paper: 2).
	// The L1 model packs per-way thread marks into 8-bit masks, so at most 8
	// threads can share a core.
	ThreadsPerCore int
	// Costs is the cycle-cost profile. Zero value means DefaultCosts().
	Costs Costs
	// Seed seeds the deterministic per-context RNGs.
	Seed int64
	// DisableHT, when true, restricts placement to one thread per core even
	// if ThreadsPerCore is 2 (used by the CLOMP-TM experiment, which the
	// paper runs with Hyper-Threading disabled).
	DisableHT bool

	// HTMModel selects the speculation-tracking/conflict-resolution design
	// package htm builds on this machine: "" or "l1bloom" (the paper
	// hardware, the default), "strict" (fixed-entry read/write sets),
	// "victim" (evicted speculative writes spill to a victim buffer), or
	// "reqloses" (requester-loses conflict resolution). The string lives
	// here, not in htm, so one knob reaches every construction path; htm
	// owns the names and rejects unknown ones at runtime construction.
	HTMModel string
	// Layout selects the memory allocator's placement policy (memory.go):
	// "" or "packed" (bump allocation, the default), "randomized" (fresh
	// allocations start on a seeded-random cache set), or "colliding"
	// (fresh allocations all start on set 0, manufacturing set-index
	// imbalance and with it capacity aborts). Validate rejects other names.
	Layout string

	// Invariants, when true, arms the machine's inline self-checks: L1 set
	// integrity (occupancy bounded by associativity, no duplicate tags, tag
	// mirror coherent) verified on every line install, virtual-clock
	// monotonicity verified on every charge, and the no-torn-write-set check
	// package htm performs at commit. A violation panics with a typed
	// *InvariantError. Off by default — the checks cost a few percent — and
	// always armed by the differential harness (internal/check).
	Invariants bool

	// MaxCycles, when nonzero, is a hard per-Run virtual-cycle budget: any
	// thread's clock passing it raises a *StallError (StallCycleBudget)
	// instead of letting a runaway region simulate forever.
	MaxCycles uint64
	// StallCycles, when nonzero, arms the livelock/starvation watchdog: if
	// no global progress event (transaction commit, lock acquisition, thread
	// completion — see Context.Progress) occurs within this many virtual
	// cycles, the run raises a *StallError (StallLivelock) carrying the
	// per-thread state dump.
	StallCycles uint64
	// Faults, when non-nil, is attached to the machine at creation time.
	// Package faults implements it with a deterministic, seed-driven
	// injector; nil means no fault injection and zero overhead.
	Faults FaultPlan

	// Metrics arms the machine's probe layer (see internal/probe and
	// probe.go in this package): a per-machine counter/histogram set the
	// engines instrument, plus the virtual-time phase profiler, registered
	// with the process-wide collector for the -metrics sidecar. Off by
	// default; the probes-off hot-path cost is one nil check in charge.
	Metrics bool
	// TraceEvents, when positive, attaches a bounded span buffer of that
	// capacity to the machine and registers it for Chrome trace-event
	// export (-trace). Arming tracing implies allocating the probe state
	// but not the metrics registration.
	TraceEvents int
	// Label names this machine in metrics/trace output (e.g. the experiment
	// cell key); empty means "sim".
	Label string
}

// FaultPlan is a fault-injection recipe that wires itself into a machine's
// hooks (TickHook, HoldStretchHook, the htm-installed SpuriousAbortHook).
// It lives in Config so injection composes with every construction path.
type FaultPlan interface {
	Attach(m *Machine)
}

// RunDefaults are process-wide robustness defaults folded into every
// DefaultConfig call: the chaos fault plan and the cycle budgets. They exist
// so command-line tools can arm fault injection and watchdogs for every
// machine the workload packages construct internally. Set them once before
// launching simulation jobs (the value is read atomically, so concurrent
// jobs are race-free either way).
type RunDefaults struct {
	Faults      FaultPlan
	MaxCycles   uint64
	StallCycles uint64
	Metrics     bool
	TraceEvents int
	HTMModel    string
	Layout      string
}

var runDefaults atomic.Pointer[RunDefaults]

// SetRunDefaults installs process-wide defaults merged into DefaultConfig.
// Passing the zero value restores the no-faults, no-budget behavior.
func SetRunDefaults(d RunDefaults) { runDefaults.Store(&d) }

// GetRunDefaults returns the currently installed process-wide defaults (the
// zero value when none were set), so tests can assert install/restore pairs.
func GetRunDefaults() RunDefaults {
	if d := runDefaults.Load(); d != nil {
		return *d
	}
	return RunDefaults{}
}

// DefaultConfig returns the machine used throughout the paper: one socket,
// 4 cores x 2 HyperThreads, 32 KB 8-way L1D — plus any process-wide
// RunDefaults (fault plan, cycle budgets).
func DefaultConfig() Config {
	cfg := Config{Sockets: 1, Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1}
	if d := runDefaults.Load(); d != nil {
		cfg.Faults = d.Faults
		cfg.MaxCycles = d.MaxCycles
		cfg.StallCycles = d.StallCycles
		cfg.Metrics = cfg.Metrics || d.Metrics
		if cfg.TraceEvents == 0 {
			cfg.TraceEvents = d.TraceEvents
		}
		if cfg.HTMModel == "" {
			cfg.HTMModel = d.HTMModel
		}
		if cfg.Layout == "" {
			cfg.Layout = d.Layout
		}
	}
	return cfg
}

type ctxState uint8

// ctxRunnable covers both the context currently holding the core and those
// waiting in the run queue — the scheduler never needs to distinguish them
// (stall dumps name the running thread separately via LastRunning), and not
// tracking the distinction saves two state stores per handoff.
const (
	ctxRunnable ctxState = iota
	ctxBlocked
	ctxDone
)

// Machine is one simulated chip-multiprocessor plus its memory.
// A Machine is not safe for use by multiple host goroutines except through
// Run, which serializes all simulated threads internally.
type Machine struct {
	Cfg   Config
	Mem   *Memory
	Costs *Costs

	caches []*Cache // one per core, backed by one contiguous slab
	// pres is the machine-level line-presence directory (which cores hold
	// each line); the coherence probe in Cache.access consults it to visit
	// only caches that actually hold the line (presence.go).
	pres presenceTab
	// nCores and nSockets cache the resolved topology: nCores is the total
	// core count (Sockets × per-socket Cores); the socket of core k is
	// k / Cfg.Cores.
	nCores   int
	nSockets int
	ctxs     []*Context
	// tree is the run queue: a min-winner tournament tree over the packed
	// scheduling keys of the runnable (not running) contexts. It holds 2·P
	// words for P = the next power of two ≥ the region's thread count;
	// tree[P..2P) are the leaves (MaxUint64 when vacant), tree[1] is the
	// root, and every inner node holds the smaller of its two children. A
	// key carries its thread id, so the root names the winner directly.
	// Built fresh per region in attach.
	tree []uint64
	// freeLeaves is the stack of vacant leaf indices: popMin pushes the
	// winner's leaf, qpush pops one. Sized per region so it never grows.
	freeLeaves []int32
	// qtopKey mirrors tree[1] (MaxUint64 when empty, so the batching fast
	// path in maybeYield is one comparison with no emptiness branch).
	qtopKey uint64
	nLive   int // contexts that have not finished their body
	// htNum/htDen cache the HyperThread co-residency factor for charge, and
	// htQuantum is one full Compute quantum under it (refreshed per region
	// in attach, so cost edits after New are honored).
	htNum     uint64
	htDen     uint64
	htQuantum uint64
	// spans records that this region charges a queued thread's pending
	// Compute quanta as one span at its due key (Context.dueKey): true
	// unless a TickHook draws per charge or a deadline is armed, which
	// both need every quantum charged at its own point in the event order.
	spans bool
	body  func(*Context)
	// dispParked is the coro in which Run's goroutine sits while simulated
	// threads hold the core; a carrier switches to it to hand control back
	// to the region driver (region completion, fatal panic, drain).
	dispParked *coro
	// fatal holds the first panic value a carrier recorded this region; Run
	// re-raises it after poisoning the survivors and draining the carriers.
	fatal any
	// poisoned makes every carrier resumed at a park point unwind via
	// poisonSignal (set for the duration of poisonAll); draining tells
	// carriers resumed at their finish park to exit their goroutines.
	poisoned bool
	draining bool
	events   uint64 // total timed events, for throughput diagnostics

	// probes is the observability state (counter set, virtual-time phase
	// planes, trace ring), non-nil only when Config armed Metrics or
	// TraceEvents; see probe.go.
	probes *probes

	// Watchdog state: deadline is the virtual clock at which the run stalls
	// (MaxUint64 when no budget is armed — a single compare in charge);
	// progressMark is the clock of the last global progress event.
	deadline     uint64
	progressMark uint64

	// ConflictHook, when non-nil, is invoked on every timed memory access
	// (transactional or not) with the accessed line. Package htm installs it
	// to perform eager, coherence-style conflict detection against all
	// in-flight transactions.
	ConflictHook func(c *Context, line Addr, write bool)
	// EvictHook is invoked when a line carrying transactional state is
	// evicted from an L1. Package htm installs it to generate capacity
	// aborts (transactionally written lines) and to demote transactionally
	// read lines into the secondary tracking structure.
	EvictHook func(owner *Context, line Addr, wasWrite bool)
	// SyscallHook is invoked when a context executes a system call.
	// Package htm installs it to abort in-flight transactions, modeling
	// instructions that always abort transactional execution.
	SyscallHook func(c *Context)

	// TickHook, when non-nil, is consulted on every virtual-clock charge
	// with the charging context and the cycle amount, and returns extra
	// cycles to add (clock jitter). Package faults installs it as the event
	// pump that also schedules spurious aborts and eviction storms.
	TickHook func(c *Context, cyc uint64) uint64
	// SpuriousAbortHook, installed by package htm, force-aborts c's
	// in-flight hardware transaction with a may-retry cause — the model of
	// an interrupt or TLB shootdown landing mid-transaction. Fault injection
	// calls it; it is a no-op while c runs no transaction.
	SpuriousAbortHook func(c *Context)
	// HoldStretchHook, when non-nil, returns extra cycles a lock release
	// must burn before handing the lock over (fault injection: stretched
	// fallback-lock hold times). Package ssync consults it in Unlock.
	HoldStretchHook func(c *Context) uint64
}

// New creates a machine with the given configuration, panicking on an
// invalid topology. NewE is the error-returning variant; the panic value is
// the same typed *ConfigError it would return.
func New(cfg Config) *Machine {
	m, err := NewE(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewE creates a machine with the given configuration. Zero-valued topology
// fields take the paper defaults (1 socket × 4 cores × 2 HyperThreads);
// invalid combinations return a typed *ConfigError (config.go) instead of
// panicking deep in construction.
func NewE(cfg Config) (*Machine, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:      cfg,
		Mem:      newMemory(cfg.Layout, cfg.Seed),
		nCores:   cfg.Sockets * cfg.Cores,
		nSockets: cfg.Sockets,
	}
	m.Costs = &m.Cfg.Costs
	// The Cache structs themselves come from one contiguous slab so a
	// 64-core machine is a single allocation, not 64 pointer-chased ones.
	m.caches = make([]*Cache, m.nCores)
	cslab := make([]Cache, m.nCores)
	for i := range m.caches {
		cslab[i].m = m
		cslab[i].id = i
		cslab[i].socket = i / cfg.Cores
		m.caches[i] = &cslab[i]
	}
	m.deadline = ^uint64(0)
	m.armProbes()
	if cfg.Faults != nil {
		cfg.Faults.Attach(m)
	}
	return m, nil
}

// MaxThreads reports the number of hardware threads the machine exposes.
func (m *Machine) MaxThreads() int {
	if m.Cfg.DisableHT {
		return m.nCores
	}
	return m.nCores * m.Cfg.ThreadsPerCore
}

// TotalCores reports the machine's total core count across all sockets.
func (m *Machine) TotalCores() int { return m.nCores }

// Sockets reports the machine's socket count.
func (m *Machine) Sockets() int { return m.nSockets }

// SocketOf reports which socket a core belongs to.
func (m *Machine) SocketOf(core int) int { return core / m.Cfg.Cores }

// Context is one simulated hardware thread executing a workload body.
// Each Run region gets fresh Context records and fresh coroutine carriers.
type Context struct {
	// The first fields are the per-event hot set (charge + maybeYield touch
	// m, key, clock; access adds cache; the sibling pointer feeds the
	// HyperThread co-residency check), ordered to share the leading host
	// cache line.
	m *Machine
	// key is the packed scheduling key, clock<<keyIDBits | id, kept in sync
	// with clock at every write. The (clock, id) lexicographic order the
	// scheduler needs is a single unsigned compare on keys, and charge
	// maintains the key with one shifted add — the maybeYield fast path
	// (almost every timed event) touches exactly one Machine word.
	key     uint64
	clock   uint64
	cache   *Cache // this core's L1 (m.caches[core], cached for the access path)
	sibling *Context
	state   ctxState
	// spinStage is the next stage of the SpinOn wait in progress (spinIdle
	// when none), spinCAS its probe kind and spinDone its outcome; the rest
	// of the wait's state is at the end, off the hot line.
	spinStage         uint8
	spinCAS, spinDone bool
	leaf              int32 // run-queue tree leaf while queued (stale otherwise)
	// computeLeft is the part of the current Compute not yet charged; a
	// queued context's is charged by Machine.settle, in one span at the
	// context's due key.
	computeLeft uint64
	id          int
	core        int
	slot        int // hardware-thread slot within the core (0 or 1)

	// parkedIn is the coro this context's carrier goroutine is parked in
	// while it is not running: whoever resumes the carrier switches on this
	// slot and thereby parks itself there (see coro.go). Set per region by
	// startCarrier; nil between regions.
	parkedIn *coro
	// exited records that the carrier goroutine has returned (region drain).
	exited bool

	// Rand is a deterministic per-thread random source.
	Rand *rand.Rand

	// TxnData is an opaque per-thread slot used by package htm to attach the
	// in-flight hardware transaction without a map lookup.
	TxnData any
	// InTxn reports whether an emulated hardware transaction is active.
	InTxn bool
	// STMData is the analogous slot for the TL2 software TM.
	STMData any

	// wakePending records a Wake that arrived while the context was not yet
	// parked (the futex "don't sleep if a wake raced ahead" rule).
	wakePending bool
	wakeAt      uint64

	// pendingLine, maintained only under Config.Invariants, is the line of
	// this context's in-flight timed access between its cache-state mutation
	// and its conflict-hook delivery (0 otherwise; line addresses start at
	// 64). See Machine.AccessInFlight.
	pendingLine Addr

	// spinAddr, spinGap and spinLeft are the word a SpinOn wait probes, the
	// Compute between its probes, and the failed probes it still allows.
	spinAddr Addr
	spinGap  uint64
	spinLeft int
}

// SpinOn probe stages.
const (
	spinIdle   = iota
	spinAtomic // the Costs.Atomic pre-compute of a CAS probe
	spinAccess // the timed access: cache state and its charge
	spinEffect // the conflict hook and the memory effect
)

// ID returns the simulated thread id (0-based, dense).
func (c *Context) ID() int { return c.id }

// CoreID returns the physical core this thread is pinned to.
func (c *Context) CoreID() int { return c.core }

// Machine returns the machine this context executes on.
func (c *Context) Machine() *Machine { return c.m }

// Now returns the context's virtual clock in cycles.
func (c *Context) Now() uint64 { return c.clock }

// Result summarizes one Run.
type Result struct {
	// Cycles is the makespan: the largest virtual clock at which any thread
	// finished. This is the simulated execution time of the parallel region.
	Cycles uint64
	// PerThread holds each thread's finishing clock.
	PerThread []uint64
	// Events is the total number of timed simulator events processed.
	Events uint64
}

// Run executes body on n simulated threads and returns the simulated
// execution time. Threads are pinned breadth-first across cores, matching
// the paper's affinity policy: a 4-thread run uses one thread on each of the
// 4 cores; an 8-thread run adds the second HyperThread on each core.
// Run may be called repeatedly; each call is a fresh parallel region over
// the same simulated memory.
func (m *Machine) Run(n int, body func(*Context)) Result {
	if n <= 0 || n > m.MaxThreads() {
		panic(fmt.Sprintf("sim: thread count %d out of range 1..%d", n, m.MaxThreads()))
	}
	m.body = body
	m.attach(n)
	for _, c := range m.ctxs {
		m.startCarrier(c)
	}
	m.progressMark = 0
	m.armDeadline()
	m.spans = m.TickHook == nil && m.deadline == ^uint64(0)
	m.fatal = nil
	// Hand the core to the earliest context. Control returns here only when
	// a carrier switched back to this goroutine: the last body finished, or
	// a fatal panic was recorded in m.fatal.
	m.resumeCtx(m.popMin())
	if p := m.fatal; p != nil {
		// Unwind the surviving simulated threads one at a time before
		// re-raising, so no carrier outlives the failed region. Each
		// poisoned carrier panics out of its park point (running cleanup
		// defers along the way, serially), then the drain retires the
		// carrier goroutines.
		m.poisonAll()
		m.drainCarriers()
		m.fatal = nil
		panic(p)
	}
	m.drainCarriers()

	res := Result{PerThread: make([]uint64, n), Events: m.events}
	for i, c := range m.ctxs {
		res.PerThread[i] = c.clock
		if c.clock > res.Cycles {
			res.Cycles = c.clock
		}
	}
	return res
}

// attach prepares n fresh contexts for a region, allocated as one block,
// and enters them all in the run queue. Run then gives each a coroutine
// carrier for the body.
func (m *Machine) attach(n int) {
	if n > 1<<keyIDBits {
		panic(fmt.Sprintf("sim: %d threads exceed the packed scheduling key's %d-id capacity", n, 1<<keyIDBits))
	}
	// One contiguous block: a 512-thread region is a single allocation plus
	// pointer stores, so large machines construct in microseconds rather
	// than one Context heap object at a time.
	blk := make([]Context, n)
	m.ctxs = make([]*Context, n)
	m.htNum = uint64(m.Costs.HTFactorNum)
	m.htDen = uint64(m.Costs.HTFactorDen)
	m.htQuantum = computeQuantum * m.htNum / m.htDen
	m.nLive = n
	for i := range blk {
		c := &blk[i]
		m.ctxs[i] = c
		c.m = m
		c.id = i
		c.core = i % m.nCores
		c.slot = i / m.nCores
		c.cache = m.caches[c.core]
		c.key = uint64(i)
		if pr := m.probes; pr != nil {
			pr.phase[i] = PhaseOther
		}
		c.Rand = rand.New(&lazySource{seed: m.Cfg.Seed + int64(i)*7919})
	}
	for _, c := range m.ctxs {
		if c.slot > 0 {
			// Thread i shares its core with thread i−nCores, the previous
			// placement round on the same core. With ThreadsPerCore > 2 the
			// sibling pointers chain pairwise (each thread points at its
			// predecessor round, the predecessor points back), a deterministic
			// pairwise approximation of full co-residency that keeps the
			// charge fast path a single pointer test.
			c.sibling = m.ctxs[c.id-m.nCores]
			c.sibling.sibling = c
		}
	}
	m.buildRunQueue()
}

// lazySource is a math/rand source that seeds itself on its first draw, so
// it yields the stream of rand.NewSource(seed). Seeding a source costs
// about 13 µs, and many contexts of a large region never draw.
type lazySource struct {
	src  rand.Source64 // nil until the first draw
	seed int64
}

// Seed restarts the stream at seed; the source is rebuilt on the next draw.
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

func (s *lazySource) Int63() int64 { return s.source().Int63() }

func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

// source returns the underlying source, seeded.
func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		// The first draw seeds the stream.
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

// startCarrier creates the coroutine carrier that executes c's body for this
// region. The wrapper contains every panic a body can raise: the
// poison-unwind signal retires the carrier quietly, anything else (stall
// diagnostics, invariant violations, workload bugs) is recorded in m.fatal
// for Run to re-raise — either way the carrier hands control back to the
// region driver and waits at its finish park until the drain lets the
// goroutine exit.
func (m *Machine) startCarrier(c *Context) {
	body := m.body
	c.exited = false
	c.parkedIn = newcoro(func(*coro) {
		normal := func() (ok bool) {
			defer func() {
				if p := recover(); p != nil {
					c.state = ctxDone
					if _, isPoison := p.(poisonSignal); !isPoison && m.fatal == nil {
						m.fatal = p
					}
				}
			}()
			body(c)
			m.finish(c) // parks until the drain
			return true
		}()
		if !normal {
			// Unwound by poison or a fatal panic: give control back to the
			// region driver and wait for the drain.
			c.finishPark(m.dispParked)
		}
		c.exited = true
		// Returning exits the carrier goroutine via the runtime's coroexit,
		// which releases whichever party is parked in this carrier's
		// creation coro — the next link of the drain chain (see
		// drainCarriers).
	})
}

// resumeCtx hands the core from the region driver (Run's goroutine) to
// carrier c, parking the driver where c was parked. Control returns when
// some carrier switches back to the driver's slot.
func (m *Machine) resumeCtx(c *Context) {
	co := c.parkedIn
	m.dispParked = co
	coroswitch(co)
}

// poisonAll unwinds every carrier still parked at a scheduling point after a
// fatal panic ended the region: with m.poisoned set, a resumed carrier's
// park converts the switch-back into a poisonSignal panic that runs the
// body's defers and is recovered at the carrier top, which then returns
// control here. The already-dead panicking carrier is skipped (ctxDone).
func (m *Machine) poisonAll() {
	m.poisoned = true
	for _, c := range m.ctxs {
		if c.state != ctxDone {
			m.resumeCtx(c)
		}
	}
	m.poisoned = false
}

// drainCarriers retires every carrier goroutine at region end. All bodies
// have finished by now, so every carrier sits at its finish park; resuming
// one lets its wrapper return, and the runtime's coroexit then releases
// whichever party is parked in that carrier's creation coro — another
// finish-parked carrier (which exits in turn, continuing the chain) or the
// region driver (which picks the next not-yet-exited carrier). Each carrier
// parks in exactly the slot its last resumer switched on, so the creation
// coros of live carriers are always occupied and the chain never touches an
// exited coro.
func (m *Machine) drainCarriers() {
	m.draining = true
	for _, c := range m.ctxs {
		if !c.exited {
			m.resumeCtx(c)
		}
	}
	m.draining = false
	for _, c := range m.ctxs {
		c.parkedIn = nil // carriers have exited; drop the coros
	}
}

// RunE is Run with stalls returned as errors: a deadlock, livelock-watchdog
// or cycle-budget *StallError raised during the region is recovered and
// returned instead of propagating as a panic. Other panics (genuine program
// errors) still propagate. After a stall the machine's memory and caches are
// as the fault left them; callers that continue should treat the machine as
// diagnostic-only.
func (m *Machine) RunE(n int, body func(*Context)) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if se, ok := p.(*StallError); ok {
				err = se
				return
			}
			panic(p)
		}
	}()
	return m.Run(n, body), nil
}

// finish retires a context whose body returned: it hands the core straight
// to the next runnable context (or back to the region driver when it was the
// last), then waits at the finish park until the drain exits the carrier.
func (m *Machine) finish(c *Context) {
	m.setState(c, ctxDone, c.key)
	c.Progress()
	m.nLive--
	if m.settle(^uint64(0)) {
		c.finishPark(m.popMin().parkedIn)
		return
	}
	if m.nLive != 0 {
		m.deadlock(c)
	}
	c.finishPark(m.dispParked)
}

// deadlock reports an unrecoverable situation: no runnable context remains
// but unfinished (blocked) contexts exist. It raises a typed *StallError
// carrying the per-thread state dump; the runner job engine and RunE convert
// it into a contained per-experiment error.
func (m *Machine) deadlock(c *Context) {
	panic(m.newStall(StallDeadlock, c, 0))
}

// poisonSignal unwinds a parked simulated thread after another thread's
// fatal panic already ended the region (m.poisoned set); see poisonAll.
type poisonSignal struct{}

// parkOn suspends this context's carrier by switching on co — the slot
// holding the party due to run next — and records that this carrier now
// waits there, so its own resumer parks itself in the same slot in turn. A
// single direct stack switch; no Go-scheduler crossing. If the region was
// poisoned while parked, the resumption unwinds the body via poisonSignal.
func (c *Context) parkOn(co *coro) {
	c.parkedIn = co
	coroswitch(co)
	if c.m.poisoned {
		panic(poisonSignal{})
	}
}

// finishPark is the terminal park of a carrier whose body is done (finished
// or unwound): it hands the core to co and waits until the region drain
// resumes the carrier so its goroutine can exit.
func (c *Context) finishPark(co *coro) {
	c.parkedIn = co
	coroswitch(co)
	if !c.m.draining {
		panic(fmt.Sprintf("sim: finished context t%d resumed outside the region drain", c.id))
	}
}

// Progress records a global forward-progress event (transaction commit,
// lock acquisition, thread completion) for the livelock watchdog, resetting
// its no-progress window. It is a cheap no-op when the watchdog is unarmed.
func (c *Context) Progress() {
	m := c.m
	if m.Cfg.StallCycles == 0 {
		return
	}
	if c.clock > m.progressMark {
		m.progressMark = c.clock
		m.armDeadline()
	}
}

// armDeadline recomputes the virtual clock at which the run is declared
// stalled: the hard MaxCycles budget and/or the watchdog window past the
// last progress event, whichever comes first. MaxUint64 means unarmed, so
// the hot-path check in charge is a single always-false compare.
func (m *Machine) armDeadline() {
	d := ^uint64(0)
	if m.Cfg.MaxCycles != 0 {
		d = m.Cfg.MaxCycles
	}
	if m.Cfg.StallCycles != 0 {
		if s := m.progressMark + m.Cfg.StallCycles; s < d {
			d = s
		}
	}
	m.deadline = d
}

// onDeadline raises the stall the armed deadline represents.
func (m *Machine) onDeadline(c *Context) {
	if m.Cfg.MaxCycles != 0 && c.clock >= m.Cfg.MaxCycles {
		panic(m.newStall(StallCycleBudget, c, m.Cfg.MaxCycles))
	}
	panic(m.newStall(StallLivelock, c, m.Cfg.StallCycles))
}

// maybeYield hands the core over if some other runnable context is at or
// behind the current virtual time (ties break toward the lower thread id,
// giving strict round-robin among equal clocks). Keeping the current context
// running while it strictly holds the minimum clock batches consecutive
// same-context events — the common serial stretch never leaves the running
// carrier — without changing the deterministic interleaving.
//
// The fast path — the current context still holds the minimum — costs one
// comparison against the cached queue minimum and no coroutine switch. The
// handover path first settles the due contexts' pending Compute quanta in
// place; if c is the minimum again it carries on without a switch,
// otherwise it takes the successor's leaf and replays that one leaf-to-root
// path. The successor depends only on the (clock, id) key set, so the
// schedule is unchanged.
func (c *Context) maybeYield() {
	m := c.m
	// qtopKey is MaxUint64 when the queue is empty, so the empty case needs
	// no extra branch. Keys are unique (unique thread ids), so c.key never
	// equals the queued minimum.
	if c.key > m.qtopKey && m.settle(c.key) {
		c.parkOn(m.replaceTop(c).parkedIn)
	}
}

// settle takes in place every pending step (Context.step) that falls due
// before key k, and reports whether a context with none pending now
// precedes k: the one the caller must hand the core to. A step is taken
// while its context holds the minimum (clock, id) key, the same point in
// the event order as if it had been switched to, so its charge sees the
// same sibling state, tick-hook draw, deadline and probe phase. A context
// with Compute pending waits at its due key and charges all of it there in
// one span (see dueKey), then takes its next step while it still holds the
// minimum. Block and finish pass MaxUint64; false then means the queue is
// empty.
func (m *Machine) settle(k uint64) bool {
	for m.qtopKey < k {
		w := m.ctxs[m.qtopKey&keyIDMask]
		if m.spans && w.computeLeft > 0 {
			w.chargeQuanta(w.quantaLeft())
		}
		if !w.step() {
			return true
		}
		m.qtopKey = m.replay(w.leaf, w.dueKey())
	}
	return false
}

// dueKey is the key at which c waits in the run queue. With spans on and
// Compute pending, it is c's key advanced past every remaining quantum
// under the sibling state now in force; no other thread's event can
// change what those quanta charge except a change of that state, and
// setState moves the leaf when one comes. Otherwise it is c's own key, the
// start of its next step.
func (c *Context) dueKey() uint64 {
	if c.computeLeft == 0 || !c.m.spans {
		return c.key
	}
	return c.key + c.quantaCycles(c.quantaLeft())<<keyIDBits
}

// quantaLeft is the number of quanta c's pending Compute still charges.
func (c *Context) quantaLeft() uint64 {
	return (c.computeLeft + computeQuantum - 1) / computeQuantum
}

// quantaCycles is what the next n quanta of c's pending Compute charge
// under the sibling state now in force: the full quanta come first, and
// each quantum floors its own HyperThread scaling, as charge does.
func (c *Context) quantaCycles(n uint64) uint64 {
	full := min(n, c.computeLeft/computeQuantum)
	raw := full * computeQuantum
	if n > full {
		raw = c.computeLeft // the remainder is the last quantum
	}
	if s := c.sibling; s != nil && s.consumesCore() {
		m := c.m
		return full*m.htQuantum + (raw-full*computeQuantum)*m.htNum/m.htDen
	}
	return raw
}

// chargeQuanta charges the next n quanta of c's pending Compute as one
// step: the clock, key and probe phase advance once by what the quanta
// charge one by one, and each quantum counts as an event. Only a queued
// context's quanta are charged this way, and only with spans on, so there
// is no tick hook to consult and no deadline to check.
func (c *Context) chargeQuanta(n uint64) {
	m := c.m
	cyc := c.quantaCycles(n)
	c.computeLeft -= min(c.computeLeft, n*computeQuantum)
	before := c.clock
	c.clock += cyc
	c.key += cyc << keyIDBits
	if pr := m.probes; pr != nil {
		pr.cycles[c.id][pr.phase[c.id]] += cyc
	}
	if m.Cfg.Invariants {
		c.checkClock(before, cyc)
	}
	m.events += n
}

// chargeBefore charges the quanta of queued c's pending Compute that start
// before key k: those the one-quantum engine would have charged by the
// time the event at k runs.
func (c *Context) chargeBefore(k uint64) {
	if c.computeLeft == 0 || c.key >= k {
		return
	}
	n := c.quantaLeft()
	if step := c.quantaCycles(1) << keyIDBits; step > 0 && n > 1 {
		n = min(n, (k-c.key+step-1)/step)
	}
	c.chargeQuanta(n)
}

// setState changes x's state at key k, the key of the event that changes
// it. A change between runnable and not changes what x's HyperThread
// siblings charge, so a queued sibling with Compute pending (a thread y
// with y.sibling == x: only x ± nCores qualify) first charges, under the
// old state, the quanta that start before k, and then moves to its due key
// under the new one.
func (m *Machine) setState(x *Context, st ctxState, k uint64) {
	if !m.spans {
		x.state = st
		return
	}
	lo, hi := m.sharer(x, x.id-m.nCores), m.sharer(x, x.id+m.nCores)
	if lo != nil {
		lo.chargeBefore(k)
	}
	if hi != nil {
		hi.chargeBefore(k)
	}
	x.state = st
	if lo != nil {
		m.qtopKey = m.replay(lo.leaf, lo.dueKey())
	}
	if hi != nil {
		m.qtopKey = m.replay(hi.leaf, hi.dueKey())
	}
}

// sharer returns thread id if it is queued with Compute pending and
// charges under x's state, else nil.
func (m *Machine) sharer(x *Context, id int) *Context {
	if id < 0 || id >= len(m.ctxs) {
		return nil
	}
	if y := m.ctxs[id]; y.sibling == x && y.computeLeft > 0 && y.state == ctxRunnable {
		return y
	}
	return nil
}

// step takes c's next pending unit of work and reports whether it did: a
// Compute quantum, or the next stage of a SpinOn probe. Each unit ends in
// exactly one charge. false means nothing is pending, or the spin wait just
// ended with no charge, so c's own code must run next.
func (c *Context) step() bool {
	if c.computeLeft > 0 {
		c.quantum()
		return true
	}
	return c.spinStage != spinIdle && c.spinStep()
}

// spinStep takes the next stage of c's SpinOn probe.
func (c *Context) spinStep() bool {
	switch c.spinStage {
	case spinAtomic:
		c.spinStage = spinAccess
		c.computeLeft = c.m.Costs.Atomic
		c.quantum()
	case spinAccess:
		c.spinStage = spinEffect
		line := LineOf(c.spinAddr)
		if c.m.Cfg.Invariants {
			c.pendingLine = line // see access
		}
		c.charge(c.cache.access(c, line, c.spinCAS, false))
	default: // spinEffect
		if h := c.m.ConflictHook; h != nil {
			h(c, LineOf(c.spinAddr), c.spinCAS)
		}
		c.pendingLine = 0
		old := c.m.Mem.read(c.spinAddr)
		if c.spinCAS {
			c.m.Mem.write(c.spinAddr, max(old, 1)) // CAS 0→1, as RMW writes f(old)
		}
		if c.spinDone = old == 0; c.spinDone || c.spinLeft == 0 {
			c.spinStage = spinIdle
			return false
		}
		c.spinLeft--
		c.spinStage = spinAccess
		if c.spinCAS {
			c.spinStage = spinAtomic
		}
		c.computeLeft = c.spinGap
		c.quantum()
	}
	return true
}

// Block parks the context until another context calls Wake on it.
// If a Wake already raced ahead (between the caller enqueueing itself on a
// wait list and parking), Block consumes it and returns immediately.
// The caller must arrange for a future Wake; otherwise the machine panics
// with a deadlock diagnostic.
func (c *Context) Block() {
	m := c.m
	if c.wakePending {
		c.wakePending = false
		if c.clock < c.wakeAt {
			c.clock = c.wakeAt
			c.key = c.clock<<keyIDBits | uint64(c.id)
		}
		c.maybeYield()
		return
	}
	m.setState(c, ctxBlocked, c.key)
	if !m.settle(^uint64(0)) {
		m.deadlock(c)
	}
	c.parkOn(m.popMin().parkedIn)
}

// Wake makes a blocked context runnable no earlier than virtual time at.
// If the target has not parked yet (it is between enqueueing itself and
// calling Block), the wake is recorded and consumed by its Block call.
// It must be called from the currently running context.
func (c *Context) Wake(target *Context, at uint64) {
	if target.state != ctxBlocked {
		target.wakePending = true
		if target.wakeAt < at {
			target.wakeAt = at
		}
		return
	}
	if target.clock < at {
		target.clock = at
		target.key = target.clock<<keyIDBits | uint64(target.id)
	}
	c.m.setState(target, ctxRunnable, c.key)
	c.m.qpush(target)
}

// consumesCore reports whether the context currently occupies execution
// resources on its core. Blocked (futex-parked) and finished threads release
// the core to their HyperThread sibling; runnable and spinning threads do not.
func (c *Context) consumesCore() bool {
	return c.state == ctxRunnable
}

// charge advances the virtual clock by cyc cycles, applying the HyperThread
// co-residency penalty when the sibling hardware thread is actively
// consuming the core. The fault-injection tick hook may add jitter cycles,
// and the stall deadline (deadlock watchdog / cycle budget) is enforced
// here — a single compare against MaxUint64 when unarmed.
func (c *Context) charge(cyc uint64) {
	m := c.m
	if h := m.TickHook; h != nil {
		cyc += h(c, cyc)
	}
	if s := c.sibling; s != nil && s.consumesCore() {
		cyc = cyc * m.htNum / m.htDen
	}
	before := c.clock
	c.clock += cyc
	c.key += cyc << keyIDBits
	if pr := m.probes; pr != nil {
		pr.cycles[c.id][pr.phase[c.id]] += cyc
	}
	if m.Cfg.Invariants {
		c.checkClock(before, cyc)
	}
	m.events++
	if c.clock >= m.deadline {
		m.onDeadline(c)
	}
}

// checkClock is the Invariants clock check after a charge of cyc cycles
// that started at clock before.
func (c *Context) checkClock(before, cyc uint64) {
	if c.clock < before || c.clock >= 1<<(64-keyIDBits) {
		panic(&InvariantError{Point: "clock", Thread: c.id, Clock: c.clock,
			Detail: fmt.Sprintf("virtual clock wrapped or exceeded the packed-key range: %d + %d cycles", before, cyc)})
	}
}

// computeQuantum bounds how many cycles one Compute call charges between
// scheduling points, so that long private-computation stretches sample the
// HyperThread co-residency state at a reasonable granularity and interleave
// with other threads' memory traffic.
const computeQuantum = 160

// Compute models cyc cycles of thread-private computation (no shared-memory
// side effects), charged in quanta of at most computeQuantum cycles with a
// scheduling point after each. computeLeft holds the cycles not yet
// charged: while the context holds the core it charges them itself, one
// quantum at a time, since code that runs before the rest would be due
// can change its sibling's state. Once it parks, whoever hands the core
// over charges the rest in place, in one span at its due key
// (Machine.settle), so a parked Compute resumes only once all of its
// quanta are charged. The loop spells out quantum: the committed PGO
// profile keys its hot Compute-to-charge edge to the charge's line offset
// in this function, and calling quantum here cost about 5% of host time on
// the A6 cells.
func (c *Context) Compute(cyc uint64) {
	c.computeLeft = cyc
	for {
		q := min(c.computeLeft, computeQuantum)
		c.computeLeft -= q
		c.charge(q)
		c.maybeYield()
		if c.computeLeft == 0 {
			return
		}
	}
}

// quantum charges the next quantum of c's Compute; with none left it
// charges one zero-cycle event, as Compute(0) does.
func (c *Context) quantum() {
	q := min(c.computeLeft, computeQuantum)
	c.computeLeft -= q
	c.charge(q)
}

// SpinOn is a lock spin wait: up to tries+1 timed probes of the word at a,
// with Compute(gap) between them, until one succeeds. A load probe (cas
// false) succeeds when the word is 0. A CAS probe computes Costs.Atomic,
// then does an indivisible read-modify-write that swaps 0 for 1, and
// succeeds when it swaps. It reports whether the last probe succeeded.
// Each probe charges and schedules exactly like Compute plus Load or RMW,
// but while the spinner is queued whoever hands the core over takes its
// steps in place (Machine.settle), so it gets the core back only once the
// wait ends.
func (c *Context) SpinOn(a Addr, cas bool, gap uint64, tries int) bool {
	c.spinAddr, c.spinGap, c.spinLeft, c.spinCAS = a, gap, tries, cas
	c.spinStage = spinAccess
	if cas {
		c.spinStage = spinAtomic
	}
	for c.step() {
		c.maybeYield()
	}
	return c.spinDone
}

// Syscall models a system call: it aborts any in-flight hardware transaction
// (via the installed SyscallHook) and costs the kernel-entry overhead plus
// extra cycles of in-kernel work.
func (c *Context) Syscall(extra uint64) {
	if c.m.SyscallHook != nil {
		c.m.SyscallHook(c)
	}
	c.charge(c.m.Costs.Syscall + extra)
	c.maybeYield()
}

// access performs one timed memory access to address a: it charges the cache
// hierarchy cost plus pre cycles of computation issued with the access (as
// one event), maintains the L1 models, and triggers conflict detection.
// When tx is true the line is marked as transactional state in the L1
// (read or write set member according to write).
//
// Ordering is load-bearing: the conflict hook runs AFTER the scheduling
// point, immediately before the caller applies the access's architectural
// effect (the memory write in Store/RMW, the buffered read/write in a
// transaction). If the hook ran before the yield, a transaction could
// subscribe to the line during the yield window and miss the conflict —
// e.g. read a lock word as free while a fallback acquisition's CAS is
// mid-flight, breaking lock elision's mutual exclusion.
func (c *Context) access(pre uint64, a Addr, write, tx bool) {
	line := LineOf(a)
	inv := c.m.Cfg.Invariants
	if inv {
		// The whole access — cache mutation through conflict-hook delivery —
		// is one logical event split around a scheduling point. Publishing
		// the in-flight line lets the commit-time write-set invariant tell a
		// pending conflict (legitimate) from silently lost speculative state
		// (a model bug). See Machine.AccessInFlight.
		c.pendingLine = line
	}
	c.charge(pre + c.cache.access(c, line, write, tx))
	c.maybeYield()
	if c.m.ConflictHook != nil {
		c.m.ConflictHook(c, line, write)
	}
	if inv {
		c.pendingLine = 0
	}
}

// Load performs a timed non-transactional read of the word at a.
func (c *Context) Load(a Addr) uint64 {
	c.access(0, a, false, false)
	return c.m.Mem.read(a)
}

// LoadAfter is Compute(pre) then Load(a) in one event: the pre cycles and
// the access cost are one charge with one scheduling point. It models
// instrumentation that issues with its read, such as a TL2 read barrier,
// so pre is not split into Compute quanta and should be short.
func (c *Context) LoadAfter(pre uint64, a Addr) uint64 {
	c.access(pre, a, false, false)
	return c.m.Mem.read(a)
}

// Store performs a timed non-transactional write of the word at a.
// Like a real store, it invalidates other caches' copies and — through the
// conflict hook — aborts any transaction holding the line in its read or
// write set (this is exactly how a non-transactional lock acquisition aborts
// the transactions that elided that lock).
func (c *Context) Store(a Addr, v uint64) {
	c.access(0, a, true, false)
	c.m.Mem.write(a, v)
}

// RMW performs a timed atomic read-modify-write of the word at a: the timed
// access may reschedule, but f is applied and the result stored with no
// intervening scheduling point, making the operation indivisible exactly
// like a LOCK-prefixed instruction. It returns the old and new values.
func (c *Context) RMW(a Addr, f func(uint64) uint64) (old, new uint64) {
	c.access(0, a, true, false)
	old = c.m.Mem.read(a)
	new = f(old)
	c.m.Mem.write(a, new)
	return old, new
}

// TxAccess performs the timing/cache/conflict part of a transactional access
// without touching memory contents; package htm uses it and manages the
// write buffer itself.
func (c *Context) TxAccess(a Addr, write bool) {
	c.access(0, a, write, true)
}

// The run queue is a min-winner tournament tree over packed keys. Keys are
// unique (unique thread ids), so the minimum is unique and extraction
// depends only on the key set — any correct priority structure yields the
// identical schedule. Every queue operation is one leaf write plus a log₂P
// walk to the root that carries the running minimum (k = min(k, sibling),
// a conditional move) with no data-dependent branch: runnable contexts'
// clocks sit close together, so a compare-and-branch structure such as a
// heap's sift-down mispredicts on about every other child compare. The
// batching fast path (one compare against the cached root key) is
// untouched, and the backing slices are allocated once per region, so the
// hot path never allocates.

// keyIDBits is the width of the thread-id field in the packed scheduling
// key (key = clock<<keyIDBits | id). 10 bits bounds regions to 1024 threads
// (a 64-core × 8-HT machine plus headroom) and virtual clocks to 2^54
// cycles; attach and the Invariants clock check enforce the limits.
const keyIDBits = 10

// keyIDMask extracts the thread id from a packed scheduling key.
const keyIDMask = 1<<keyIDBits - 1

// buildRunQueue fills the tree with every context of a fresh region: leaf
// P+i holds thread i's key, the leaves past n stay vacant, and each inner
// node is built bottom-up as the smaller of its children.
func (m *Machine) buildRunQueue() {
	n := len(m.ctxs)
	p := 1
	for p < n {
		p <<= 1
	}
	t := make([]uint64, 2*p)
	m.tree = t
	for i := 0; i < p; i++ {
		k := ^uint64(0)
		if i < n {
			c := m.ctxs[i]
			c.leaf = int32(p + i)
			k = c.key
		}
		t[p+i] = k
	}
	for i := p - 1; i >= 1; i-- {
		t[i] = min(t[2*i], t[2*i+1])
	}
	m.qtopKey = t[1]
	m.freeLeaves = make([]int32, 0, n)
}

// replay writes key k at leaf i and recomputes the path to the root,
// returning the new root key. Siblings off the path are unchanged and
// already hold their subtree minima, so each parent is min(k, sibling).
func (m *Machine) replay(i int32, k uint64) uint64 {
	t := m.tree
	t[i] = k
	for i > 1 {
		k = min(k, t[i^1])
		i >>= 1
		t[i] = k
	}
	return k
}

// replaceTop hands the queue minimum's leaf to c, at c's due key, in one
// walk and returns the departing minimum. The caller must ensure the queue
// is nonempty.
func (m *Machine) replaceTop(c *Context) *Context {
	next := m.ctxs[m.qtopKey&keyIDMask]
	c.leaf = next.leaf
	m.qtopKey = m.replay(c.leaf, c.dueKey())
	return next
}

// qpush queues c at a vacant leaf, updating the cached minimum.
func (m *Machine) qpush(c *Context) {
	last := len(m.freeLeaves) - 1
	c.leaf = m.freeLeaves[last]
	m.freeLeaves = m.freeLeaves[:last]
	m.qtopKey = m.replay(c.leaf, c.key)
}

// popMin removes and returns the queue minimum (the root's winner),
// vacating its leaf. The caller must ensure the queue is nonempty.
func (m *Machine) popMin() *Context {
	c := m.ctxs[m.qtopKey&keyIDMask]
	m.freeLeaves = append(m.freeLeaves, c.leaf)
	m.qtopKey = m.replay(c.leaf, ^uint64(0))
	return c
}
