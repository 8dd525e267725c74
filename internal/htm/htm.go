// Package htm emulates Intel Transactional Synchronization Extensions
// (Intel TSX) as implemented in the 4th Generation Core microarchitecture,
// on top of the sim machine model.
//
// The emulation follows Section 2 of the paper:
//
//   - RTM-style interface: a transaction begins (XBEGIN), performs
//     transactional loads and stores, and either commits atomically (XEND)
//     or aborts, discarding all transactional updates and reporting an
//     abort cause with a may-retry hint.
//   - Transactional state is tracked in the core's L1 data cache at
//     cache-line granularity. Eviction of a transactionally *written* line
//     aborts the transaction (capacity). Eviction of a transactionally
//     *read* line does not abort immediately: the line moves into a
//     secondary tracking structure — modeled as a Bloom filter, so it may
//     cause an abort later, including false-positive aborts.
//   - Conflict detection is eager and uses the coherence protocol: any
//     other thread's store to a line in this transaction's read or write
//     set, or load of a line in its write set, aborts the transaction at
//     the time of access ("requester wins").
//   - System calls and other abort-causing instructions abort immediately
//     and set the no-retry hint.
//
// Aborted transactions unwind via a typed panic that Runtime.Try recovers;
// transaction bodies must therefore be written as re-executable closures,
// exactly like RTM fallback paths in real software.
//
// The tracking structures and the conflict-resolution policy described above
// are the *default* capacity model (l1bloom); the design is pluggable via
// sim.Config.HTMModel — see CapacityModel in model.go for the alternatives.
package htm

import (
	"fmt"
	"math/bits"

	"tsxhpc/internal/probe"
	"tsxhpc/internal/sim"
)

// AbortCause classifies why a transactional execution failed, mirroring the
// RTM abort-status bits.
type AbortCause int

const (
	// NoAbort means the transaction committed.
	NoAbort AbortCause = iota
	// Conflict: another thread accessed a line in the read/write set.
	Conflict
	// Capacity: a transactionally written line was evicted from L1, or the
	// secondary read-tracking structure signaled an (possibly false)
	// overflow conflict.
	Capacity
	// SyscallAbort: an instruction that always aborts (system call, I/O).
	SyscallAbort
	// Explicit: software executed XABORT.
	Explicit
	// LockBusy: the elided lock was observed held at transaction start
	// (software convention used by lock-elision wrappers).
	LockBusy
	// Spurious: an injected environmental abort — an interrupt or TLB
	// shootdown landing mid-transaction (package faults drives it through
	// the machine's SpuriousAbortHook). Spurious aborts are always
	// may-retry: the disturbance is transient, so the elision wrappers
	// back off and retry rather than falling straight back to the lock.
	Spurious
	// NumCauses is the number of distinct abort causes.
	NumCauses
)

// String returns the perf-style name of the cause.
func (c AbortCause) String() string {
	switch c {
	case NoAbort:
		return "none"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case SyscallAbort:
		return "syscall"
	case Explicit:
		return "explicit"
	case LockBusy:
		return "lock-busy"
	case Spurious:
		return "spurious"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Stats aggregates transactional execution counters, the model's equivalent
// of the Linux perf TSX event counts the paper collects for Table 1.
type Stats struct {
	Starts   uint64
	Commits  uint64
	Aborts   [NumCauses]uint64
	Fallback uint64 // times the fallback lock was explicitly acquired
}

// TotalAborts sums aborts over all causes.
func (s *Stats) TotalAborts() uint64 {
	var t uint64
	for _, v := range s.Aborts {
		t += v
	}
	return t
}

// AbortRate returns aborted transactional executions as a percentage of all
// transactional executions (the Table 1 metric).
func (s *Stats) AbortRate() float64 {
	t := s.TotalAborts()
	if t+s.Commits == 0 {
		return 0
	}
	return 100 * float64(t) / float64(t+s.Commits)
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// htmMaxThreads bounds the thread ids the conflict directory can track: a
// dirMask holds one reader and one writer bit per thread. 128 covers the
// scale-out grid's largest machine (64 cores × 2 hardware threads); raising
// it only widens dirMask.
const htmMaxThreads = 128

// dirWords is the number of uint64 words in each of the reader and writer
// planes of a dirMask.
const dirWords = htmMaxThreads / 64

// dirMask is one conflict-directory entry: which in-flight transactions (by
// thread id bit) hold the line in their read set (words [0, dirWords)) and
// write set (words [dirWords, 2*dirWords)). dirReaderBit/dirWriterBit return
// the (word, bit) coordinates of a thread's marks.
type dirMask [2 * dirWords]uint64

func (m *dirMask) empty() bool {
	var or uint64
	for _, w := range m {
		or |= w
	}
	return or == 0
}

// Starting sizes of the conflict directory and of each transaction's write
// buffer. Both grow on demand; a write buffer that grew past four times its
// start shrinks back at the thread's next Begin.
const (
	lineDirMinSize  = 256
	writeBufMinSize = 16
)

func dirReaderBit(id int) (int, uint64) { return id >> 6, 1 << uint(id&63) }
func dirWriterBit(id int) (int, uint64) { return dirWords + id>>6, 1 << uint(id&63) }

// Runtime is the per-machine TSX emulation state. Creating a Runtime
// installs the machine hooks; only one Runtime may be active per Machine.
type Runtime struct {
	m      *sim.Machine
	active []*Txn // indexed by thread id; grown on demand up to htmMaxThreads
	pool   []*Txn // recycled per-thread Txn objects (Begin is hot; see Begin)
	nTxns  int
	lines  sim.AddrMap[dirMask] // conflict directory: line → reader/writer masks
	ovf    [dirWords]uint64     // thread ids whose read set overflowed to Bloom
	Stats  Stats

	// model is the capacity/conflict design resolved from sim.Config.HTMModel
	// at construction; conflict is the matching coherence-conflict hook
	// (requester-wins or requester-loses), precomputed so Begin arms a direct
	// function value.
	model    CapacityModel
	conflict func(c *sim.Context, line sim.Addr, write bool)

	// CommitHook, when set, is invoked once per successful Commit, after the
	// buffered writes became architecturally visible but still inside the
	// indivisible commit instant (no scheduling points have passed). The
	// differential harness (internal/check) uses it to stamp serialization
	// order; the hook must not perform timed simulated work.
	CommitHook func(c *sim.Context)

	// pc holds the probe counter handles, resolved once at construction;
	// nil when the machine carries no probe set (the default), making every
	// instrumentation point a nil check.
	pc *htmProbes
}

// htmProbes are the runtime's probe handles (see internal/probe): abort
// counts by cause, plus start/commit totals, mirroring Stats into the
// machine's probe set so the -metrics sidecar and the abort-anatomy
// experiment can aggregate them across machines.
type htmProbes struct {
	starts  *probe.Counter
	commits *probe.Counter
	aborts  [NumCauses]*probe.Counter
}

// New creates the TSX runtime for m and installs its conflict, eviction and
// syscall hooks.
func New(m *sim.Machine) *Runtime {
	model, err := ParseModel(m.Cfg.HTMModel)
	if err != nil {
		// Flag parsing and cmd/verify screen model names before any machine
		// is built, so reaching this is a programming error, not user input.
		panic(err)
	}
	r := &Runtime{
		m:      m,
		active: make([]*Txn, 64),
		pool:   make([]*Txn, 64),
		model:  model,
	}
	r.conflict = r.conflictHook
	if !model.RequesterWins() {
		r.conflict = r.conflictLoses
	}
	r.lines.Init(lineDirMinSize)
	// ConflictHook is toggled by Begin/cleanup so it is installed only while
	// a transaction is in flight: the hook fires on every timed access in
	// the machine, and outside transactional phases (serial regions, lock
	// workloads) it would be a dead indirect call on the hottest path.
	m.EvictHook = r.evictHook
	m.SyscallHook = r.syscallHook
	m.SpuriousAbortHook = r.spuriousHook
	if ps := m.ProbeSet(); ps != nil {
		// The default model keeps the historical htm/ probe names (the
		// abort-anatomy experiment and the metrics sidecar read them);
		// alternate models get their own namespace so a sweep across models
		// never merges counters from different designs.
		prefix := "htm/"
		if model.Name() != "l1bloom" {
			prefix = "htm/" + model.Name() + "/"
		}
		pc := &htmProbes{
			starts:  ps.Counter(prefix + "starts"),
			commits: ps.Counter(prefix + "commits"),
		}
		for cause := AbortCause(0); cause < NumCauses; cause++ {
			pc.aborts[cause] = ps.Counter(prefix + "abort/" + cause.String())
		}
		r.pc = pc
	}
	return r
}

// ModelName reports the capacity model the runtime was constructed with.
func (r *Runtime) ModelName() string { return r.model.Name() }

// Txn is one in-flight emulated hardware transaction.
type Txn struct {
	rt  *Runtime
	ctx *sim.Context

	// readLines/writeLines list the lines this transaction tracks, for
	// cleanup sweeps; membership itself is authoritative in the runtime's
	// conflict directory (this thread's reader/writer bit), so the slices
	// are append-only and duplicate-free by construction.
	readLines  []sim.Addr
	writeLines []sim.Addr
	writeBuf   sim.AddrMap[uint64] // word address -> speculative value
	bloom      bloom
	frees      []pendingFree // deferred until commit (TM_FREE discipline)
	victim     []sim.Addr    // victim-buffer model: spilled written lines (unused otherwise)

	doomed  bool
	cause   AbortCause
	noRetry bool

	// prevPhase/txnCyc0 support the virtual-time profiler: the phase to
	// restore when the transaction ends, and the thread's PhaseTxn cycle
	// total at begin, so an abort can reclassify exactly this attempt's
	// cycles as wasted. Both are zero (and harmless) when probes are off.
	prevPhase sim.Phase
	txnCyc0   uint64
}

type abortSignal struct{ cause AbortCause }

// pendingFree is a memory release deferred to commit: freeing inside a
// speculative region must not take effect if the region rolls back, and must
// not expose still-reachable memory for reuse before the unlinking writes
// become visible.
type pendingFree struct {
	addr sim.Addr
	size int
}

// Begin starts a transaction on c (XBEGIN). Transactions do not nest; the
// caller (package tm) flattens nested atomic regions.
func (r *Runtime) Begin(c *sim.Context) *Txn {
	if id := c.ID(); id >= len(r.active) {
		// Grow the per-thread slots for large machines; the paper topology
		// (8 threads) never takes this branch.
		if id >= htmMaxThreads {
			panic(fmt.Sprintf("htm: thread id %d exceeds the %d-thread conflict-directory limit", id, htmMaxThreads))
		}
		n := len(r.active)
		for n <= id {
			n *= 2
		}
		active := make([]*Txn, n)
		copy(active, r.active)
		r.active = active
		pool := make([]*Txn, n)
		copy(pool, r.pool)
		r.pool = pool
	}
	if r.active[c.ID()] != nil {
		panic("htm: nested hardware transaction")
	}
	// The speculative attempt starts here: everything from the XBegin charge
	// on is PhaseTxn until commit or abort (txnCyc0 marks the baseline so an
	// abort reclassifies only this attempt's cycles as wasted).
	prevPhase := c.SetPhase(sim.PhaseTxn)
	txnCyc0 := c.PhaseCycles(sim.PhaseTxn)
	c.Compute(r.m.Costs.XBegin)
	// Transactions start on every attempt (aborted attempts restart), so the
	// per-thread Txn and its set-tracking maps are recycled rather than
	// reallocated; a thread runs at most one transaction at a time.
	t := r.pool[c.ID()]
	if t == nil {
		t = &Txn{}
		t.writeBuf.Init(writeBufMinSize)
		r.pool[c.ID()] = t
	} else {
		if r.m.Cfg.Invariants {
			poolCheckTxn(r, c)
		}
		t.readLines = t.readLines[:0]
		t.writeLines = t.writeLines[:0]
		t.writeBuf.Reset()
		t.frees = t.frees[:0]
		t.victim = t.victim[:0]
		t.bloom = bloom{}
		t.doomed = false
		t.cause = NoAbort
		t.noRetry = false
	}
	t.rt = r
	t.ctx = c
	t.prevPhase = prevPhase
	t.txnCyc0 = txnCyc0
	r.active[c.ID()] = t
	if r.nTxns == 0 {
		// First in-flight transaction: arm coherence conflict detection with
		// the model's resolution policy.
		r.m.ConflictHook = r.conflict
	}
	r.nTxns++
	c.InTxn = true
	c.TxnData = t
	r.Stats.Starts++
	if pc := r.pc; pc != nil {
		pc.starts.Inc()
	}
	return t
}

// check aborts (unwinds) if the transaction has been doomed by a remote
// access, an eviction, or a syscall since the last check.
func (t *Txn) check() {
	if t.doomed {
		t.finishAbort()
	}
}

func (t *Txn) finishAbort() {
	t.ctx.Compute(t.rt.m.Costs.XAbort)
	// Everything this attempt executed (XBegin through the XAbort just
	// charged) is retroactively wasted work.
	t.ctx.ReclassifyCycles(sim.PhaseTxn, sim.PhaseWasted, t.ctx.PhaseCycles(sim.PhaseTxn)-t.txnCyc0)
	t.cleanup()
	t.rt.Stats.Aborts[t.cause]++
	if pc := t.rt.pc; pc != nil {
		pc.aborts[t.cause].Inc()
	}
	panic(abortSignal{t.cause})
}

// Load performs a transactional read of the word at a.
//
// The line joins the transaction's tracked read set *before* the timed
// access: the access may reschedule other threads, and a concurrent
// conflicting write during that window must see this transaction as a
// reader (in hardware the tracking and the access are one indivisible
// event; registering first is the conservative equivalent).
func (t *Txn) Load(a sim.Addr) uint64 {
	t.check()
	if t.writeBuf.Len() != 0 {
		if i := t.writeBuf.Find(a); i >= 0 {
			// Store-to-load forwarding from the speculative buffer.
			t.ctx.Compute(t.rt.m.Costs.TxAccess)
			return t.writeBuf.Vals[i]
		}
	}
	line := sim.LineOf(a)
	w, bit := dirReaderBit(t.ctx.ID())
	if i := t.rt.lines.Find(line); i < 0 || t.rt.lines.Vals[i][w]&bit == 0 {
		if !t.bloom.has(line) {
			j, _ := t.rt.lines.Place(line)
			t.rt.lines.Vals[j][w] |= bit
			t.readLines = append(t.readLines, line)
			t.rt.model.Track(t, line, false)
		}
	}
	t.ctx.TxAccess(a, false)
	t.check()
	return t.rt.m.Mem.ReadRaw(a)
}

// Store performs a transactional write of the word at a. The value is
// buffered in the L1-backed speculative state and only reaches memory at
// commit. As with Load, write-set tracking precedes the timed access so no
// unregistered window exists.
func (t *Txn) Store(a sim.Addr, v uint64) {
	t.check()
	line := sim.LineOf(a)
	w, bit := dirWriterBit(t.ctx.ID())
	if i := t.rt.lines.Find(line); i < 0 || t.rt.lines.Vals[i][w]&bit == 0 {
		j, _ := t.rt.lines.Place(line)
		t.rt.lines.Vals[j][w] |= bit
		t.writeLines = append(t.writeLines, line)
		t.rt.model.Track(t, line, true)
	}
	t.ctx.TxAccess(a, true)
	t.check()
	i, _ := t.writeBuf.Place(a)
	t.writeBuf.Vals[i] = v
}

// Commit attempts to commit (XEND). On success all buffered writes become
// architecturally visible at once. The commit latency is charged first and
// the doom flag is re-checked after it, so a conflict arriving during the
// commit window still aborts; past that final check the write-back is
// indivisible (no scheduling points), making the commit a single atomic
// instant exactly like XEND.
func (t *Txn) Commit() {
	t.check()
	t.ctx.Compute(t.rt.m.Costs.XCommit)
	t.check()
	if t.rt.m.Cfg.Invariants {
		// No committed transaction may have a torn write set: every written
		// line must still be held by the model's tracking structures. What
		// "held" means is the model's CheckCommit contract — directory
		// membership plus the L1 write mark for the cache-backed designs
		// (with the victim buffer as an alternate home), directory membership
		// alone where marks can be legitimately stripped (requester-loses) or
		// are not cache-backed at all (strict).
		t.rt.model.CheckCommit(t)
	}
	for i, a := range t.writeBuf.Keys {
		if a != 0 {
			t.rt.m.Mem.WriteRaw(a, t.writeBuf.Vals[i])
		}
	}
	for _, f := range t.frees {
		t.rt.m.Mem.Free(f.addr, f.size)
	}
	if h := t.rt.CommitHook; h != nil {
		h(t.ctx)
	}
	t.cleanup()
	t.rt.Stats.Commits++
	if pc := t.rt.pc; pc != nil {
		pc.commits.Inc()
	}
	t.ctx.Progress() // a commit is global forward progress (livelock watchdog)
}

// Free releases a block of simulated memory at commit time. If the
// transaction aborts, the block stays allocated (and, if the allocation also
// happened inside the transaction, leaks — matching native memory
// management inside transactional regions).
func (t *Txn) Free(a sim.Addr, size int) {
	t.frees = append(t.frees, pendingFree{a, size})
}

// Abort executes XABORT with the given software cause, unwinding to the
// enclosing Try.
func (t *Txn) Abort(cause AbortCause) {
	t.doomed = true
	t.cause = cause
	t.noRetry = cause == Explicit || cause == SyscallAbort
	t.finishAbort()
}

// Doomed reports whether the transaction has already been marked for abort
// (it will unwind at the next transactional access or commit).
func (t *Txn) Doomed() bool { return t.doomed }

// Ctx returns the executing context.
func (t *Txn) Ctx() *sim.Context { return t.ctx }

// cleanup deregisters the transaction: clears the cache marks, the global
// line tracking, and the per-thread active slot.
func (t *Txn) cleanup() {
	r := t.rt
	id := t.ctx.ID()
	rw, rbit := dirReaderBit(id)
	ww, wbit := dirWriterBit(id)
	for _, line := range t.readLines {
		r.m.ClearTxMarks(t.ctx, line)
		if i := r.lines.Find(line); i >= 0 {
			v := &r.lines.Vals[i]
			if v[rw] &^= rbit; v.empty() {
				r.lines.Remove(i)
			}
		}
	}
	for _, line := range t.writeLines {
		r.m.ClearTxMarks(t.ctx, line)
		if i := r.lines.Find(line); i >= 0 {
			v := &r.lines.Vals[i]
			if v[ww] &^= wbit; v.empty() {
				r.lines.Remove(i)
			}
		}
	}
	r.ovf[id>>6] &^= 1 << uint(id&63)
	r.active[id] = nil
	t.ctx.SetPhase(t.prevPhase)
	if r.nTxns--; r.nTxns == 0 {
		// Last in-flight transaction gone: disarm conflict detection so
		// non-transactional stretches pay no hook call per access.
		r.m.ConflictHook = nil
	}
	t.ctx.InTxn = false
	t.ctx.TxnData = nil
}

// doom marks a transaction for abort; the victim unwinds when it next
// executes a transactional access or attempts to commit.
func (r *Runtime) doom(t *Txn, cause AbortCause, noRetry bool) {
	if t.doomed {
		return
	}
	t.doomed = true
	t.cause = cause
	t.noRetry = t.noRetry || noRetry
}

// conflictHook implements eager coherence-based conflict detection: it is
// invoked on every timed access in the machine and aborts every *other*
// in-flight transaction whose read/write set intersects the accessed line.
func (r *Runtime) conflictHook(c *sim.Context, line sim.Addr, write bool) {
	if r.nTxns == 0 || (r.nTxns == 1 && c.InTxn) {
		return
	}
	selfW, selfBit := c.ID()>>6, uint64(1)<<uint(c.ID()&63)
	if i := r.lines.Find(line); i >= 0 {
		v := &r.lines.Vals[i]
		for w := 0; w < dirWords; w++ {
			victims := v[dirWords+w] // writers
			if write {
				victims |= v[w] // a write conflicts with readers too
			}
			if w == selfW {
				victims &^= selfBit
			}
			for victims != 0 {
				id := w<<6 | bits.TrailingZeros64(victims)
				victims &= victims - 1
				if t := r.active[id]; t != nil {
					r.doom(t, Conflict, false)
				}
			}
		}
	}
	// Lines demoted to the secondary (Bloom) tracker are checked on writes
	// only; reads cannot conflict with a read set.
	if write && r.ovf != ([dirWords]uint64{}) {
		for w := 0; w < dirWords; w++ {
			ovf := r.ovf[w]
			if w == selfW {
				ovf &^= selfBit
			}
			for ovf != 0 {
				id := w<<6 | bits.TrailingZeros64(ovf)
				ovf &= ovf - 1
				if t := r.active[id]; t != nil && !t.doomed && t.bloom.has(line) {
					r.doom(t, Conflict, false)
				}
			}
		}
	}
}

// conflictLoses is the requester-loses resolution policy (the reqloses
// model): a *transactional* access that conflicts with another live
// transaction's speculative state dooms the requester itself, letting the
// established holders run on. A non-transactional access cannot be refused —
// coherence must serve it — so it falls through to the requester-wins sweep;
// that is what keeps the fallback lock acquirable and the elision wrappers
// live. A requester already doomed loses nothing further, and never takes
// holders down with it: its buffered writes will be discarded, so the
// invalidations its accesses caused carry no data conflict.
func (r *Runtime) conflictLoses(c *sim.Context, line sim.Addr, write bool) {
	if r.nTxns == 0 || (r.nTxns == 1 && c.InTxn) {
		return
	}
	if c.InTxn {
		if t := r.txn(c.ID()); t != nil {
			if !t.doomed && r.lineHeld(c.ID(), line, write) {
				r.doom(t, Conflict, false)
			}
			return
		}
	}
	r.conflictHook(c, line, write)
}

// lineHeld reports whether any live transaction other than self holds line
// in a conflicting set: a write conflicts with readers and writers, a read
// with writers only. It consults the precise directory and, for writes, the
// Bloom-demoted read sets — the same structures the requester-wins sweep
// dooms from, so the two policies agree on what constitutes a conflict and
// differ only in who aborts.
func (r *Runtime) lineHeld(self int, line sim.Addr, write bool) bool {
	selfW, selfBit := self>>6, uint64(1)<<uint(self&63)
	if i := r.lines.Find(line); i >= 0 {
		v := &r.lines.Vals[i]
		for w := 0; w < dirWords; w++ {
			holders := v[dirWords+w] // writers
			if write {
				holders |= v[w] // a write conflicts with readers too
			}
			if w == selfW {
				holders &^= selfBit
			}
			for holders != 0 {
				id := w<<6 | bits.TrailingZeros64(holders)
				holders &= holders - 1
				if t := r.active[id]; t != nil && !t.doomed {
					return true
				}
			}
		}
	}
	if write && r.ovf != ([dirWords]uint64{}) {
		for w := 0; w < dirWords; w++ {
			ovf := r.ovf[w]
			if w == selfW {
				ovf &^= selfBit
			}
			for ovf != 0 {
				id := w<<6 | bits.TrailingZeros64(ovf)
				ovf &= ovf - 1
				if t := r.active[id]; t != nil && !t.doomed && t.bloom.has(line) {
					return true
				}
			}
		}
	}
	return false
}

// evictHook routes the L1 eviction of a line carrying speculative marks to
// the capacity model: under the default design losing a written line is
// fatal (capacity abort) and a read line demotes to the Bloom-filter
// secondary structure; other models spill to a victim buffer or ignore the
// eviction entirely (tracking decoupled from the cache).
func (r *Runtime) evictHook(owner *sim.Context, line sim.Addr, wasWrite bool) {
	t := r.txn(owner.ID())
	if t == nil {
		return // stale mark from an already-finished transaction
	}
	r.model.Evict(t, line, wasWrite)
}

// spuriousHook dooms the caller's in-flight transaction (if any) with the
// may-retry Spurious cause — the model of an interrupt or TLB shootdown.
// Fault injection invokes it through the machine's SpuriousAbortHook.
func (r *Runtime) spuriousHook(c *sim.Context) {
	if t := r.txn(c.ID()); t != nil {
		r.doom(t, Spurious, false)
	}
}

// syscallHook aborts the caller's in-flight transaction with the no-retry
// hint: system calls can never succeed transactionally, so the elision
// wrapper should acquire the lock without further retries.
func (r *Runtime) syscallHook(c *sim.Context) {
	if t := r.txn(c.ID()); t != nil {
		r.doom(t, SyscallAbort, true)
	}
}

// Try executes body transactionally once. It returns (NoAbort, false) on
// commit; otherwise the abort cause and whether the hardware hinted that a
// retry cannot succeed. Body must be a re-executable closure with no
// non-transactional side effects before its first transactional operation.
func (r *Runtime) Try(c *sim.Context, body func(*Txn)) (cause AbortCause, noRetry bool) {
	t := r.Begin(c)
	defer func() {
		if p := recover(); p != nil {
			sig, ok := p.(abortSignal)
			if !ok {
				// A genuine program error: drop the txn and re-panic.
				if r.active[c.ID()] == t {
					t.cleanup()
				}
				panic(p)
			}
			cause = sig.cause
			noRetry = t.noRetry
		}
	}()
	body(t)
	t.Commit()
	return NoAbort, false
}

// Active returns c's in-flight transaction, or nil.
func (r *Runtime) Active(c *sim.Context) *Txn { return r.txn(c.ID()) }

// txn is the bounds-safe active-transaction lookup: the machine hooks fire
// for every thread, including ones whose id is past the lazily-grown slot
// arrays because they never began a transaction.
func (r *Runtime) txn(id int) *Txn {
	if id < len(r.active) {
		return r.active[id]
	}
	return nil
}
