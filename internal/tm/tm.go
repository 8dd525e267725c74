// Package tm is the unified synchronization library the workloads call into,
// mirroring the paper's methodology: applications mark critical sections
// (via macros/pragmas in the original C; via closures here) and the library
// decides how to execute them. Three execution schemes are provided, exactly
// the three compared in Figures 2–4:
//
//   - SGL — every transactional region serializes on a single global lock.
//   - TL2 — regions run under the TL2 software transactional memory.
//   - TSX — regions transactionally elide the single global lock using the
//     emulated Intel TSX hardware (package htm), retrying up to MaxRetries
//     times before explicitly acquiring the lock, and testing the lock word
//     inside the transaction for correct interaction with fallback holders.
//
// A fourth scheme, Raw, executes regions with no synchronization at all and
// exists for single-threaded serial baselines.
//
// The TSX scheme's retry loop is an Elider, which the workloads of Figures
// 4 and 5 also call for lockset elision (Section 5.2.1): one transactional
// begin replacing the acquisition of a whole set of locks. The locking
// module of Section 6 (core.LockModule) runs the same loop under its own
// Policy.
package tm

import (
	"cmp"
	"slices"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/stm"
)

// Mode selects how transactional regions execute.
type Mode int

const (
	// Raw runs regions without synchronization (serial baselines only).
	Raw Mode = iota
	// SGL serializes all regions on a single global lock.
	SGL
	// TL2 runs regions under the TL2 software TM.
	TL2
	// TSX elides the single global lock with emulated Intel TSX.
	TSX
)

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	switch m {
	case Raw:
		return "raw"
	case SGL:
		return "sgl"
	case TL2:
		return "tl2"
	case TSX:
		return "tsx"
	}
	return "?"
}

// Tx is the access interface a transactional region's body uses for shared
// memory. Under SGL and the TSX fallback path the operations are plain
// loads/stores (the lock provides exclusion); under TSX they are hardware-
// transactional; under TL2 they are STM-instrumented.
type Tx interface {
	// Load reads the shared word at a.
	Load(a sim.Addr) uint64
	// Store writes the shared word at a.
	Store(a sim.Addr, v uint64)
	// Free releases simulated memory with transactional discipline
	// (TM_FREE): under TSX and TL2 the release is deferred until commit, so
	// an abort cannot expose still-reachable memory for reuse.
	Free(a sim.Addr, size int)
	// Ctx returns the executing simulated thread.
	Ctx() *sim.Context
}

// LoadF reads a float64 stored at a through tx.
func LoadF(tx Tx, a sim.Addr) float64 { return sim.B2F(tx.Load(a)) }

// StoreF writes a float64 at a through tx.
func StoreF(tx Tx, a sim.Addr, v float64) { tx.Store(a, sim.F2B(v)) }

// LoadI reads a signed integer stored at a through tx.
func LoadI(tx Tx, a sim.Addr) int64 { return sim.B2I(tx.Load(a)) }

// StoreI writes a signed integer at a through tx.
func StoreI(tx Tx, a sim.Addr, v int64) { tx.Store(a, sim.I2B(v)) }

// System is one configured instance of the synchronization library.
type System struct {
	M    *sim.Machine
	Mode Mode
	// MaxRetries is how many failed transactional attempts are made before
	// explicitly acquiring the fallback lock; the paper found 5 best.
	MaxRetries int

	HTM   *htm.Runtime
	STM   *stm.TL2
	GLock *ssync.Mutex

	cur []Tx // per-thread current region, for flat nesting

	// commitHook, when set via SetCommitHook, observes every region's commit
	// instant regardless of mode.
	commitHook func(*sim.Context)

	// el elides the global lock (TSX mode only); glock is that lock as the
	// one-element set el takes.
	el    *Elider
	glock []*ssync.Mutex
}

// siteProbes are one lock site's elision statistics, named
// tsx/site/<site>/{attempts,fallbacks,fallback-cycles}.
type siteProbes struct {
	attempts *probe.Hist    // transactional tries per region (1 = first-try commit)
	fallback *probe.Counter // explicit fallback acquisitions
	fbCycles *probe.Counter // cycles the fallback locks were held (occupancy)
}

// tsxSpanNames maps each attempt outcome to its precomputed trace-span name
// (building the string at the emit site would allocate on the hot path).
var tsxSpanNames = [htm.NumCauses]string{
	htm.NoAbort:      "tsx:commit",
	htm.Conflict:     "tsx:abort:conflict",
	htm.Capacity:     "tsx:abort:capacity",
	htm.SyscallAbort: "tsx:abort:syscall",
	htm.Explicit:     "tsx:abort:explicit",
	htm.LockBusy:     "tsx:abort:lock-busy",
	htm.Spurious:     "tsx:abort:spurious",
}

// DefaultMaxRetries is the transactional retry budget before falling back to
// the lock; the paper reports 5 as the best overall setting for its hardware
// and workloads.
const DefaultMaxRetries = 5

// NewSystem creates a synchronization library instance over machine m.
func NewSystem(m *sim.Machine, mode Mode) *System {
	s := &System{
		M:          m,
		Mode:       mode,
		MaxRetries: DefaultMaxRetries,
		GLock:      ssync.NewMutex(m.Mem),
		cur:        make([]Tx, m.MaxThreads()),
	}
	switch mode {
	case TSX:
		s.HTM = htm.New(m)
		s.el = NewElider(s.HTM, m, "global")
		s.el.fallbackSpan = "tsx:fallback"
		s.glock = []*ssync.Mutex{s.GLock}
	case TL2:
		s.STM = stm.New(m)
	}
	m.SetProbeEngine(mode.String())
	return s
}

// SetCommitHook arranges for h to run once per committed top-level region,
// at the instant that fixes the region's place in the serial order: inside
// the hardware commit for TSX (and, on the fallback path, while the global
// lock is still held), at TL2's serialization point (see stm.TL2.CommitHook),
// while the lock is held for SGL, and directly after the body for Raw. The
// differential harness (internal/check) uses it to capture commit order; h
// must not perform timed simulated work.
func (s *System) SetCommitHook(h func(*sim.Context)) {
	s.commitHook = h
	if s.HTM != nil {
		s.HTM.CommitHook = h
		s.el.commitHook = h
	}
	if s.STM != nil {
		s.STM.CommitHook = h
	}
}

// plainTx accesses memory directly; exclusion comes from a held lock (or,
// for Raw, from single-threaded execution).
type plainTx struct{ c *sim.Context }

func (t plainTx) Load(a sim.Addr) uint64     { return t.c.Load(a) }
func (t plainTx) Store(a sim.Addr, v uint64) { t.c.Store(a, v) }
func (t plainTx) Free(a sim.Addr, size int)  { t.c.Machine().Mem.Free(a, size) }
func (t plainTx) Ctx() *sim.Context          { return t.c }

type htmTx struct{ t *htm.Txn }

func (t htmTx) Load(a sim.Addr) uint64     { return t.t.Load(a) }
func (t htmTx) Store(a sim.Addr, v uint64) { t.t.Store(a, v) }
func (t htmTx) Free(a sim.Addr, size int)  { t.t.Free(a, size) }
func (t htmTx) Ctx() *sim.Context          { return t.t.Ctx() }

type tl2Tx struct {
	t *stm.Txn
	c *sim.Context
}

func (t tl2Tx) Load(a sim.Addr) uint64     { return t.t.Load(a) }
func (t tl2Tx) Store(a sim.Addr, v uint64) { t.t.Store(a, v) }
func (t tl2Tx) Free(a sim.Addr, size int)  { t.t.Free(a, size) }
func (t tl2Tx) Ctx() *sim.Context          { return t.c }

// UnannotatedLoad reads a word the application does NOT annotate for the TM
// runtime — e.g. labyrinth's private grid snapshot, which STAMP deliberately
// leaves unannotated so software TMs skip instrumenting a 14 MB copy. A
// software TM (TL2) performs a plain uninstrumented load; hardware
// transactional memory cannot skip tracking, so under TSX the access is
// transactional anyway, inflating the hardware read set (the capacity
// asymmetry Section 4.2 of the paper discusses).
func UnannotatedLoad(tx Tx, a sim.Addr) uint64 {
	if h, ok := tx.(htmTx); ok {
		return h.t.Load(a)
	}
	return tx.Ctx().Load(a)
}

// PlainTx wraps a context as a Tx performing direct, uninstrumented accesses;
// exclusion must be provided externally (a held lock or single-threading).
func PlainTx(c *sim.Context) Tx { return plainTx{c} }

// Atomic executes body as one transactional region under the system's mode.
// Nested calls flatten into the enclosing region. Body must be a
// re-executable closure: under TSX and TL2 it may run several times.
func (s *System) Atomic(c *sim.Context, body func(Tx)) {
	if cur := s.cur[c.ID()]; cur != nil {
		body(cur) // flat nesting
		return
	}
	switch s.Mode {
	case Raw:
		s.enter(c, plainTx{c}, body)
		if s.commitHook != nil {
			s.commitHook(c)
		}
	case SGL:
		s.GLock.Lock(c)
		prev := c.SetPhase(sim.PhaseSerial)
		s.enter(c, plainTx{c}, body)
		if s.commitHook != nil {
			// Commit point: the region's writes are visible and the lock is
			// still held, so no later region can order ahead of this one.
			s.commitHook(c)
		}
		s.GLock.Unlock(c)
		c.SetPhase(prev)
	case TL2:
		s.STM.Run(c, func(t *stm.Txn) {
			s.enter(c, tl2Tx{t, c}, body)
		})
	case TSX:
		s.el.elide(c, s.glock, Policy{maxRetries: s.MaxRetries}, func(tx Tx) { s.enter(c, tx, body) })
	}
}

func (s *System) enter(c *sim.Context, tx Tx, body func(Tx)) {
	s.cur[c.ID()] = tx
	defer func() { s.cur[c.ID()] = nil }()
	body(tx)
}

// Elider is the RTM lock-elision loop from Section 3 of the paper for one
// lock site: run the region transactionally with the lock words in the read
// set (aborting if any is held), retry up to the budget with randomized
// backoff on conflicts, wait for a busy lock to come free, and fall back to
// explicit acquisition on persistent failure or when the hardware hints a
// retry cannot succeed (syscalls, explicit aborts). A Policy sets the budget
// and the backoff. A site is built once, so its probe handles resolve off
// the hot path.
type Elider struct {
	rt           *htm.Runtime
	fallbackSpan string             // trace-span name of a fallback acquisition
	commitHook   func(*sim.Context) // see System.SetCommitHook; nil for lock sets
	pc           *siteProbes        // nil when the machine carries no probe set
}

// NewElider creates the elision site named site, running on rt over machine
// m. Its probes live under tsx/site/<site>/ and its fallback spans are named
// "<site>:fallback".
func NewElider(rt *htm.Runtime, m *sim.Machine, site string) *Elider {
	e := &Elider{rt: rt, fallbackSpan: site + ":fallback"}
	if ps := m.ProbeSet(); ps != nil {
		e.pc = &siteProbes{
			attempts: ps.Hist("tsx/site/" + site + "/attempts"),
			fallback: ps.Counter("tsx/site/" + site + "/fallbacks"),
			fbCycles: ps.Counter("tsx/site/" + site + "/fallback-cycles"),
		}
	}
	return e
}

// Policy is an elision site's retry policy. Section 3's policy, which the
// TSX System and ElideSet run, charges every failed attempt to the budget
// and widens the conflict backoff window by 16 cycles per attempt; the
// locking module of Section 6 runs ModulePolicy.
type Policy struct {
	maxRetries    int  // attempts charged before the fallback acquisition
	freeConflicts int  // conflict aborts retried before they are charged
	capped        bool // conflict window 16·min(conflicts, 8); no spurious backoff
}

// conflictRetryBudget is how many conflict aborts a locking-module critical
// section retries before they start counting toward the lock-fallback
// budget. Unlike capacity or lock-busy aborts, a data conflict in a
// communication-heavy stack usually means the peer just made progress
// (enqueued or drained a packet), so the retry will see fresh state and
// succeed; escalating to the fallback lock on conflicts triggers
// serialization storms (every acquisition aborts every other elided section).
const conflictRetryBudget = 32

// conflictWindow is the backoff window, in cycles, after the given number
// of conflict aborts with attempt attempts charged so far. It is a method so
// that elide's backoff call to Compute stays on the line offset where
// cmd/reproduce/default.pgo records it as a hot call edge; moved, the PGO
// build no longer inlines Compute there.
func (p Policy) conflictWindow(attempt, conflicts int) int64 {
	if p.capped {
		return int64(16 * min(conflicts, 8))
	}
	return int64(16 * (attempt + 1))
}

// ModulePolicy is the policy of the Section 6 locking module (core.LockModule).
var ModulePolicy = Policy{maxRetries: DefaultMaxRetries, freeConflicts: conflictRetryBudget, capped: true}

// Elide executes body as a critical section protected by locks under
// policy pol (see ElideSet).
func (e *Elider) Elide(c *sim.Context, locks []*ssync.Mutex, pol Policy, body func(Tx)) {
	e.elide(c, locks, pol, body)
}

// ElideSet executes body as a critical section protected by the given set of
// locks, replacing the whole set of acquisitions with a single transactional
// begin (lockset elision), with DefaultMaxRetries attempts. The fallback
// acquires every lock in address order (avoiding deadlock) and runs body
// non-speculatively. Body must be a re-executable closure.
func (e *Elider) ElideSet(c *sim.Context, locks []*ssync.Mutex, body func(Tx)) {
	e.elide(c, locks, Policy{maxRetries: DefaultMaxRetries}, body)
}

// elide runs the elision loop under policy pol. Only charged attempts count
// toward pol's budget; tries counts every transactional attempt.
func (e *Elider) elide(c *sim.Context, locks []*ssync.Mutex, pol Policy, body func(Tx)) {
	costs := c.Machine().Costs
	tries, conflicts := uint64(0), 0
	for attempt := 0; attempt < pol.maxRetries; {
		tries++
		t0 := c.Now()
		cause, noRetry := e.rt.Try(c, func(t *htm.Txn) {
			for _, mu := range locks {
				if t.Load(mu.Addr) != 0 {
					t.Abort(htm.LockBusy)
				}
			}
			body(htmTx{t})
		})
		c.EmitSpan(t0, c.Now()-t0, "txn", tsxSpanNames[cause])
		if cause == htm.NoAbort {
			if p := e.pc; p != nil {
				p.attempts.Observe(tries)
			}
			return
		}
		if noRetry {
			break
		}
		switch cause {
		case htm.LockBusy:
			// Wait for the locks to be released before retrying; retrying
			// while one is held would abort immediately again. The wait is
			// bounded: under a steady stream of fallback acquisitions a lock
			// word can stay set indefinitely (ownership is handed directly
			// between parked waiters), and an unbounded spin would livelock —
			// exhausting the retry budget instead sends this thread into the
			// fair fallback queue.
			prev := c.SetPhase(sim.PhaseSpin)
			for _, mu := range locks {
				c.SpinOn(mu.Addr, false, costs.MutexSpin, 4*costs.MutexSpinTries)
			}
			c.SetPhase(prev)
		case htm.Conflict:
			conflicts++ // a brief randomized backoff breaks symmetric conflict cycles
			prev := c.SetPhase(sim.PhaseSpin)
			c.Compute(uint64(c.Rand.Int63n(pol.conflictWindow(attempt, conflicts))) + 1)
			c.SetPhase(prev)
			if conflicts <= pol.freeConflicts {
				continue // a free retry: the budget is not charged
			}
		case htm.Spurious:
			if pol.capped {
				break
			}
			// Injected environmental abort (interrupt/TLB shootdown model):
			// always worth retrying, with bounded exponential backoff so a
			// burst of disturbances does not burn the whole retry budget
			// inside the same burst. The budget still bounds total attempts;
			// exhausting it falls back to the locks, which guarantees
			// forward progress.
			prev := c.SetPhase(sim.PhaseSpin)
			c.Compute(uint64(c.Rand.Int63n(spuriousBackoffMax(attempt))) + 1)
			c.SetPhase(prev)
		}
		attempt++
	}
	// Fallback: explicitly acquire the locks. The store to a lock word
	// aborts every transaction currently eliding it, ensuring correctness.
	e.rt.Stats.Fallback++
	if p := e.pc; p != nil {
		p.attempts.Observe(tries)
		p.fallback.Inc()
	}
	if len(locks) > 1 {
		// Address order avoids deadlock; a set may name the same lock
		// several times (e.g. two batched constraints sharing an object),
		// and acquiring it twice would self-deadlock.
		locks = slices.Clone(locks)
		slices.SortFunc(locks, func(a, b *ssync.Mutex) int { return cmp.Compare(a.Addr, b.Addr) })
		locks = slices.Compact(locks)
	}
	f0 := c.Now()
	for _, mu := range locks {
		mu.Lock(c)
	}
	lockAt := c.Now()
	prev := c.SetPhase(sim.PhaseSerial)
	body(plainTx{c})
	if e.commitHook != nil {
		// Same commit point as SGL: hook before release, while the fallback
		// locks still exclude both elided and fallback regions.
		e.commitHook(c)
	}
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].Unlock(c)
	}
	c.SetPhase(prev)
	if p := e.pc; p != nil {
		p.fbCycles.Add(c.Now() - lockAt)
	}
	c.EmitSpan(f0, c.Now()-f0, "fallback", e.fallbackSpan)
}

// spuriousBackoffMax is the bounded exponential backoff ceiling (in cycles)
// for retry attempt n after a spurious (injected environmental) abort:
// 32·2ⁿ capped at 4096. Only fault injection produces Spurious aborts, so
// the branch never executes — and never draws from the thread's RNG — in a
// faults-off run.
func spuriousBackoffMax(attempt int) int64 {
	max := int64(32) << uint(attempt)
	if max > 4096 || max <= 0 {
		max = 4096
	}
	return max
}

// AbortRate returns the transactional abort percentage for the active
// mechanism (Table 1's metric), or 0 for modes without speculation.
func (s *System) AbortRate() float64 {
	switch s.Mode {
	case TSX:
		return s.HTM.Stats.AbortRate()
	case TL2:
		return s.STM.Stats.AbortRate()
	}
	return 0
}

// ResetStats zeroes the speculation counters.
func (s *System) ResetStats() {
	if s.HTM != nil {
		s.HTM.Stats.Reset()
	}
	if s.STM != nil {
		s.STM.Stats.Reset()
	}
}
