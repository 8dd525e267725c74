// Package stm implements TL2 (Transactional Locking II, Dice/Shalev/Shavit,
// DISC 2006), the software transactional memory that the STAMP distribution
// ships and that the paper uses as the STM baseline in Figure 2 and Table 1.
//
// The implementation is the standard algorithm: a global version clock,
// per-stripe versioned write-locks (ownership records), invisible reads with
// pre/post validation, lazy versioning with commit-time locking, and full
// read-set validation at commit. Each instrumented operation charges the
// software bookkeeping cost that makes STMs expensive at one thread — the
// effect the paper contrasts against Intel TSX's uninstrumented reads.
package stm

import (
	"tsxhpc/internal/probe"
	"tsxhpc/internal/sim"
)

const orecCount = 1 << 16 // stripes

// writeSetMinSize is each attempt's starting write-set size; a write set
// that grew past four times it shrinks back at the thread's next attempt.
const writeSetMinSize = 16

// orec is one ownership record: a versioned write-lock.
type orec struct {
	version uint64
	owner   int // thread id + 1 when locked; 0 when free
}

// Stats counts transactional executions for the tl2 columns of Table 1.
type Stats struct {
	Starts  uint64
	Commits uint64
	Aborts  uint64
}

// AbortRate returns aborts as a percentage of all transactional executions.
func (s *Stats) AbortRate() float64 {
	if s.Aborts+s.Commits == 0 {
		return 0
	}
	return 100 * float64(s.Aborts) / float64(s.Aborts+s.Commits)
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// TL2 is one software TM instance over a machine's memory.
type TL2 struct {
	m     *sim.Machine
	gv    uint64 // global version clock
	orecs []orec
	pool  []*Txn // recycled per-thread Txn objects (try is hot; see try)
	Stats Stats

	// CommitHook, when set, is invoked once per committed transaction, for a
	// writer after read-set validation succeeds (the transaction can no
	// longer abort) and before write-back. Note this instant is NOT the
	// serialization point: the read-set validation charge (one Compute before
	// the orec checks) contains scheduling points, so two commits can fire
	// their hooks in the opposite order of their write versions. Callers
	// that need the exact serial order must use SerializeHook and order by
	// wv. The hook must not perform timed simulated work.
	CommitHook func(c *sim.Context)

	// SerializeHook, when set, is invoked the instant a writer acquires its
	// write version — immediately after the global-clock advance, with no
	// scheduling point in between — which is the transaction's position in
	// TL2's serial order: all its reads are proved (by the validation that
	// follows) unmodified from its snapshot through this instant, and
	// per-location write order matches wv order because write locks are held
	// from before the advance until after write-back. The attempt can still
	// fail read-set validation afterwards, so consumers must treat the stamp
	// as tentative and discard it unless CommitHook confirms the commit.
	// Read-only transactions serialize at their snapshot (rv), never acquire
	// a wv, and never fire this hook (internal/check generates writers-only
	// workloads for exactly this reason — see DESIGN.md §11). The hook must
	// not perform timed simulated work.
	SerializeHook func(c *sim.Context, wv uint64)

	// pc holds the probe counter handles (nil when the machine carries no
	// probe set): validation-failure counts by site and the global-clock
	// pressure metrics the abort-anatomy experiment reports.
	pc *tl2Probes
}

// tl2Probes are the TL2 instance's probe handles, resolved once in New.
type tl2Probes struct {
	starts        *probe.Counter
	commits       *probe.Counter
	abortRead     *probe.Counter // Load pre/post validation failed
	abortLock     *probe.Counter // commit-time orec acquisition found lock held/advanced
	abortValidate *probe.Counter // commit-time read-set validation failed
	gvAdv         *probe.Counter // global version clock advances (writer commits)
	gvLag         *probe.Hist    // gv distance traveled between snapshot and commit
}

// New creates a TL2 instance for machine m.
func New(m *sim.Machine) *TL2 {
	s := &TL2{m: m, orecs: make([]orec, orecCount), pool: make([]*Txn, 64)}
	if ps := m.ProbeSet(); ps != nil {
		s.pc = &tl2Probes{
			starts:        ps.Counter("tl2/starts"),
			commits:       ps.Counter("tl2/commits"),
			abortRead:     ps.Counter("tl2/abort/read-validate"),
			abortLock:     ps.Counter("tl2/abort/lock-busy"),
			abortValidate: ps.Counter("tl2/abort/commit-validate"),
			gvAdv:         ps.Counter("tl2/gv/advances"),
			gvLag:         ps.Hist("tl2/gv/lag"),
		}
	}
	return s
}

func orecIdx(a sim.Addr) int {
	x := uint64(a) >> 3
	x *= 0x9e3779b97f4a7c15
	return int(x >> 48) // top 16 bits
}

type tl2Abort struct{}

// Txn is one TL2 transaction attempt.
type Txn struct {
	s   *TL2
	ctx *sim.Context
	rv  uint64

	readSet  []int               // orec indices
	writeSet sim.AddrMap[uint64] // word address -> buffered value (lazy versioning)
	wOrder   []sim.Addr          // deterministic write-back order
	wVals    []uint64            // commit-time scratch: wOrder's values, for the write-back run
	locks    []int               // commit-time scratch: sorted unique write-set orecs
	frees    []pendingFree
}

type pendingFree struct {
	addr sim.Addr
	size int
}

// Free releases a block of simulated memory at commit time (TM_FREE
// discipline: a free inside an aborted transaction must not take effect).
func (t *Txn) Free(a sim.Addr, size int) {
	t.frees = append(t.frees, pendingFree{a, size})
}

// Load performs an instrumented transactional read with pre/post orec
// validation, aborting on inconsistency (the "invisible reads" protocol).
// The barrier's instrumentation and its read are one charge: the pre-check
// is host work on the orec, so it needs no scheduling point of its own.
func (t *Txn) Load(a sim.Addr) uint64 {
	read := t.s.m.Costs.TL2Read
	if t.writeSet.Len() != 0 {
		if i := t.writeSet.Find(a); i >= 0 {
			t.ctx.Compute(read)
			return t.writeSet.Vals[i]
		}
	}
	oi := orecIdx(a)
	o := &t.s.orecs[oi]
	if o.owner != 0 || o.version > t.rv {
		t.ctx.Compute(read)
		t.abortRead()
	}
	v := t.ctx.LoadAfter(read, a)
	if o.owner != 0 || o.version > t.rv {
		t.abortRead()
	}
	t.readSet = append(t.readSet, oi)
	return v
}

// abortRead aborts on a failed Load pre- or post-check.
func (t *Txn) abortRead() {
	if p := t.s.pc; p != nil {
		p.abortRead.Inc()
	}
	t.abort()
}

// Ctx returns the simulated thread running the transaction.
func (t *Txn) Ctx() *sim.Context { return t.ctx }

// Store buffers an instrumented transactional write (lazy versioning).
func (t *Txn) Store(a sim.Addr, v uint64) {
	t.ctx.Compute(t.s.m.Costs.TL2Write)
	i, isNew := t.writeSet.Place(a)
	t.writeSet.Vals[i] = v
	if isNew {
		t.wOrder = append(t.wOrder, a)
	}
}

// StoreN buffers Store(addrs[i], vals[i]) for each i in order. The writes
// are private to the transaction until commit, so they all enter the write
// set up front and their barriers are one ComputeN run. (Store keeps its
// own copy of the write-set update: the PGO profile inlines Place there.)
func (t *Txn) StoreN(addrs []sim.Addr, vals []uint64) {
	for i, a := range addrs {
		j, isNew := t.writeSet.Place(a)
		t.writeSet.Vals[j] = vals[i]
		if isNew {
			t.wOrder = append(t.wOrder, a)
		}
	}
	t.ctx.ComputeN(t.s.m.Costs.TL2Write, len(addrs))
}

func (t *Txn) abort() {
	t.ctx.Compute(t.s.m.Costs.TL2AbortCost)
	t.s.Stats.Aborts++
	panic(tl2Abort{})
}

// commit locks the write-set orecs in index order, advances the global
// clock, validates the read set, writes back, and releases.
func (t *Txn) commit() {
	c := t.ctx
	costs := t.s.m.Costs
	if t.writeSet.Len() == 0 {
		// Read-only transactions commit without validation in TL2.
		c.Compute(costs.TL2Commit)
		if h := t.s.CommitHook; h != nil {
			h(c)
		}
		t.commitFrees()
		t.s.Stats.Commits++
		if p := t.s.pc; p != nil {
			p.commits.Inc()
		}
		return
	}
	// Lock write-set orecs in a canonical order to avoid deadlock; abort if
	// any is held or has advanced past our read version. Dedup by sorting the
	// scratch slice and compacting adjacent duplicates (no map allocation).
	locks := t.locks[:0]
	for _, a := range t.wOrder {
		locks = append(locks, orecIdx(a))
	}
	insertionSort(locks)
	uniq := locks[:0]
	for i, oi := range locks {
		if i == 0 || oi != locks[i-1] {
			uniq = append(uniq, oi)
		}
	}
	locks = uniq
	t.locks = locks
	// The lock loop is one charge; the orecs are host-side, so checking
	// and acquiring them after it needs no scheduling point per orec.
	id := c.ID() + 1
	c.Compute(uint64(len(locks)) * costs.TL2PerOrec)
	for i, oi := range locks {
		o := &t.s.orecs[oi]
		if o.owner != 0 || o.version > t.rv {
			for _, li := range locks[:i] {
				t.s.orecs[li].owner = 0
			}
			if p := t.s.pc; p != nil {
				p.abortLock.Inc()
			}
			t.abort()
		}
		o.owner = id
	}
	// Advance the global version clock.
	c.Compute(costs.Atomic)
	t.s.gv++
	wv := t.s.gv
	if p := t.s.pc; p != nil {
		p.gvAdv.Inc()
		p.gvLag.Observe(wv - 1 - t.rv) // how far gv moved since our snapshot
	}
	if h := t.s.SerializeHook; h != nil {
		h(c, wv)
	}
	// Validate the read set: one charge for the whole walk, then the checks.
	if n := len(t.readSet); n > 0 {
		c.Compute(uint64(n) * costs.TL2PerRead)
	}
	for _, oi := range t.readSet {
		o := &t.s.orecs[oi]
		if (o.owner != 0 && o.owner != id) || o.version > t.rv {
			for _, li := range locks {
				if t.s.orecs[li].owner == id {
					t.s.orecs[li].owner = 0
				}
			}
			if p := t.s.pc; p != nil {
				p.abortValidate.Inc()
			}
			t.abort()
		}
	}
	// Validation passed and every write-set orec is held: the transaction is
	// now irrevocable, ordered at wv (stamped by SerializeHook above).
	if h := t.s.CommitHook; h != nil {
		h(c)
	}
	// Write back and release: the write-back is one run of stores.
	t.wVals = t.wVals[:0]
	for _, a := range t.wOrder {
		t.wVals = append(t.wVals, t.writeSet.Vals[t.writeSet.Find(a)])
	}
	c.ComputeStoreN(costs.TL2Commit, t.wOrder, t.wVals)
	for _, oi := range locks {
		o := &t.s.orecs[oi]
		o.version = wv
		o.owner = 0
	}
	t.commitFrees()
	t.s.Stats.Commits++
	if p := t.s.pc; p != nil {
		p.commits.Inc()
	}
	c.Progress()
}

func (t *Txn) commitFrees() {
	for _, f := range t.frees {
		t.s.m.Mem.Free(f.addr, f.size)
	}
}

// tl2MaxAttempts bounds Run's retry loop. TL2 aborts only on real data
// conflicts, so with randomized exponential backoff some interleaving always
// commits well before this many attempts; a transaction that genuinely
// exhausts the budget is livelocked (e.g. under pathological fault
// injection), and surfacing a typed stall beats spinning forever.
const tl2MaxAttempts = 1 << 20

// Run executes body as a TL2 transaction, retrying with randomized
// exponential backoff until it commits. Body must be a re-executable
// closure. A transaction that fails tl2MaxAttempts times panics with a
// *sim.StallError (recovered per-experiment by sim.RunE callers).
func (s *TL2) Run(c *sim.Context, body func(*Txn)) {
	backoff := uint64(32)
	for attempt := 1; ; attempt++ {
		committed := s.try(c, body)
		if committed {
			return
		}
		if attempt >= tl2MaxAttempts {
			panic(c.NewStall(sim.StallLivelock, tl2MaxAttempts))
		}
		prev := c.SetPhase(sim.PhaseSpin)
		c.Compute(uint64(c.Rand.Int63n(int64(backoff))) + 1)
		c.SetPhase(prev)
		if backoff < 8192 {
			backoff *= 2
		}
	}
}

func (s *TL2) try(c *sim.Context, body func(*Txn)) (committed bool) {
	// One attempt is one PhaseTxn interval (the mark lets the abort path
	// reclassify exactly this attempt's cycles as wasted) and one trace span.
	prevPhase := c.SetPhase(sim.PhaseTxn)
	mark := c.PhaseCycles(sim.PhaseTxn)
	t0 := c.Now()
	c.Compute(s.m.Costs.TL2Start)
	s.Stats.Starts++
	if p := s.pc; p != nil {
		p.starts.Inc()
	}
	// Attempts restart on abort, so the per-thread Txn and its write-set map
	// are recycled rather than reallocated; a thread runs at most one
	// transaction at a time.
	if id := c.ID(); id >= len(s.pool) {
		// Large-topology machines run more threads than the initial pool;
		// grow to the thread id (host-side, outside virtual time).
		grown := make([]*Txn, id+1)
		copy(grown, s.pool)
		s.pool = grown
	}
	t := s.pool[c.ID()]
	if t == nil {
		t = &Txn{s: s}
		t.writeSet.Init(writeSetMinSize)
		s.pool[c.ID()] = t
	} else {
		t.readSet = t.readSet[:0]
		t.writeSet.Reset()
		t.wOrder = t.wOrder[:0]
		t.frees = t.frees[:0]
	}
	t.ctx = c
	t.rv = s.gv
	defer func() {
		p := recover()
		_, aborted := p.(tl2Abort)
		if aborted {
			committed = false
			c.ReclassifyCycles(sim.PhaseTxn, sim.PhaseWasted, c.PhaseCycles(sim.PhaseTxn)-mark)
		}
		c.SetPhase(prevPhase)
		if aborted {
			c.EmitSpan(t0, c.Now()-t0, "txn", "tl2:abort")
		} else if p == nil {
			c.EmitSpan(t0, c.Now()-t0, "txn", "tl2:commit")
		}
		if p != nil && !aborted {
			panic(p) // a genuine program error (or poison unwind)
		}
	}()
	body(t)
	t.commit()
	return true
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
