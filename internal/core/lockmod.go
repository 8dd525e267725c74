package core

import (
	"fmt"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/stm"
	"tsxhpc/internal/tm"
)

// LockMode selects the locking-module implementation for a large-scale
// software system (the user-level TCP/IP stack study, Section 6). The five
// modes are exactly the five bars of Figure 6.
type LockMode int

const (
	// ModeMutex is the original stack: pthread mutexes + condition variables.
	ModeMutex LockMode = iota
	// ModeTSXAbort elides locks with RTM but unconditionally aborts the
	// transaction when it must touch a condition variable, then acquires
	// the lock to manipulate it.
	ModeTSXAbort
	// ModeTSXCond elides locks with RTM and uses the transaction-aware
	// condition variable: commit partial results at the wait point, park on
	// a futex with no lock held, restart the transaction on wake; signalers
	// register a callback that runs after commit.
	ModeTSXCond
	// ModeMutexBusyWait is the original stack with the conditional wait
	// replaced by busy-waiting (Listing 6): unlock, poll, relock.
	ModeMutexBusyWait
	// ModeTSXBusyWait combines RTM lock elision with busy-waiting: the
	// transaction commits partial results and immediately retries.
	ModeTSXBusyWait
	// ModeTL2 runs every critical section as a TL2 software transaction —
	// the STM baseline of Figures 2/4 applied to a whole software system.
	// There is no lock at all: conflicting sections retry under TL2's
	// commit-time validation, and a section that must wait for a monitor
	// condition restarts its (buffered, not yet visible) body after a poll
	// gap, like the busy-wait modes.
	ModeTL2
)

// String names the mode as Figure 6 does.
func (m LockMode) String() string {
	switch m {
	case ModeMutex:
		return "mutex"
	case ModeTSXAbort:
		return "tsx.abort"
	case ModeTSXCond:
		return "tsx.cond"
	case ModeMutexBusyWait:
		return "mutex.busywait"
	case ModeTSXBusyWait:
		return "tsx.busywait"
	case ModeTL2:
		return "tl2"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Elides reports whether the mode uses transactional lock elision.
func (m LockMode) Elides() bool {
	return m == ModeTSXAbort || m == ModeTSXCond || m == ModeTSXBusyWait
}

// LockModule is the single module through which a software system performs
// all its synchronization, as in the PARSEC user-level TCP/IP stack ("all
// the synchronization constructs — locks, condition variables, etc. — are
// implemented in a single locking module"). Swapping the module swaps the
// synchronization strategy for the whole system with no changes to the code
// using it.
type LockModule struct {
	M    *sim.Machine
	Mode LockMode
	RT   *htm.Runtime // non-nil for eliding modes
	STM  *stm.TL2     // non-nil for ModeTL2
	el   *tm.Elider   // the eliding modes' one elision site, "lockmod"
}

// NewLockModule creates a locking module for machine m. For eliding modes it
// installs the TSX runtime on the machine and builds the elision site every
// region runs through; for ModeTL2 it creates the TL2 instance all the
// module's regions share (one global version clock and orec table, as TL2
// prescribes).
func NewLockModule(m *sim.Machine, mode LockMode) *LockModule {
	lm := &LockModule{M: m, Mode: mode}
	if mode.Elides() {
		lm.RT = htm.New(m)
		lm.el = tm.NewElider(lm.RT, m, "lockmod")
	}
	if mode == ModeTL2 {
		lm.STM = stm.New(m)
	}
	return lm
}

// Region is one lock domain (one mutex and the critical sections it guards).
type Region struct {
	lm    *LockModule
	mu    *ssync.Mutex
	locks [1]*ssync.Mutex // mu as the one-element set the elider takes
}

// NewRegion creates a lock domain.
func (lm *LockModule) NewRegion() *Region {
	r := &Region{lm: lm, mu: ssync.NewMutex(lm.M.Mem)}
	r.locks[0] = r.mu
	return r
}

// CondVar is a monitor condition associated with a Region's lock. The seq
// word in simulated memory gives futex semantics: waiting is an atomic
// "park if the sequence still equals what I observed", so wakeups cannot be
// lost even though transactional waiters hold no lock. The nWait word
// counts registered waiters so signalers can skip the wake system call when
// nobody is parked (the BSD sowakeup pattern); the module maintains it for
// every mode, including across transactional restarts.
type CondVar struct {
	lm      *LockModule
	seq     sim.Addr
	nWait   sim.Addr
	waiters []*sim.Context
}

// NewCond creates a condition variable.
func (lm *LockModule) NewCond() *CondVar {
	return &CondVar{lm: lm, seq: lm.M.Mem.AllocLine(8), nWait: lm.M.Mem.AllocLine(8)}
}

// pthreadWait is the classic monitor wait: release the region lock, park,
// reacquire (Listing 4's pthread_cond_wait).
func (cv *CondVar) pthreadWait(c *sim.Context, mu *ssync.Mutex) {
	cv.waiters = append(cv.waiters, c)
	mu.Unlock(c)
	c.Compute(c.Machine().Costs.FutexBlock)
	c.Block()
	mu.Lock(c)
}

// futexWait parks the thread iff the sequence word still equals expected —
// the kernel-atomic FUTEX_WAIT used by the transaction-aware condition
// variable. No lock is held.
func (cv *CondVar) futexWait(c *sim.Context, expected uint64) {
	c.Compute(c.Machine().Costs.FutexBlock)
	if c.Machine().Mem.ReadRaw(cv.seq) != expected {
		return // a signal raced ahead; don't sleep
	}
	cv.waiters = append(cv.waiters, c)
	c.Block()
}

// signal bumps the sequence and wakes one waiter (FUTEX_WAKE).
func (cv *CondVar) signal(c *sim.Context) {
	costs := c.Machine().Costs
	c.RMW(cv.seq, func(v uint64) uint64 { return v + 1 })
	c.Syscall(costs.FutexWakeCall)
	if len(cv.waiters) > 0 {
		w := cv.waiters[0]
		cv.waiters = cv.waiters[1:]
		c.Wake(w, c.Now()+costs.FutexWake)
	}
}

// broadcast bumps the sequence and wakes all waiters.
func (cv *CondVar) broadcast(c *sim.Context) {
	costs := c.Machine().Costs
	c.RMW(cv.seq, func(v uint64) uint64 { return v + 1 })
	c.Syscall(costs.FutexWakeCall)
	for _, w := range cv.waiters {
		c.Wake(w, c.Now()+costs.FutexWake)
	}
	cv.waiters = cv.waiters[:0]
}

// CS is the view a critical-section body has of shared memory and monitor
// operations. The same body source runs under every locking-module mode;
// Wait may cause the body to restart from the top (monitor semantics require
// re-checking the predicate in a loop anyway, so restart and in-place wait
// are interchangeable for correctly written monitors).
type CS interface {
	Load(a sim.Addr) uint64
	Store(a sim.Addr, v uint64)
	// StoreN is Store(addrs[i], vals[i]) for each i in order. Plain and
	// TL2 sections take the stores as one run (sim.Context.StoreN,
	// stm.Txn.StoreN); hardware-transactional ones store one by one. The
	// slices must be the calling thread's own (sim.Context.StoreBuf).
	StoreN(addrs []sim.Addr, vals []uint64)
	Ctx() *sim.Context
	// Wait suspends until the condition may have changed. It either waits
	// in place and returns (lock-based modes) or unwinds and restarts the
	// body (transactional modes).
	Wait(cv *CondVar)
	// Signal wakes one waiter of cv (possibly deferred to commit).
	Signal(cv *CondVar)
	// Broadcast wakes all waiters of cv (possibly deferred to commit).
	Broadcast(cv *CondVar)
	// Waiters reads cv's registered-waiter count, letting critical sections
	// skip Signal's wake system call when nobody can be waiting. Busy-wait
	// modes always report 0 (their waiters poll and need no wake).
	Waiters(cv *CondVar) uint64
}

// waitRequest unwinds a transactional body that must wait; Region.Do parks
// the thread and restarts the body.
type waitRequest struct {
	cv       *CondVar
	expected uint64
	busy     bool
}

// pendingOp is a condition-variable operation registered during a
// transaction and executed after its commit (the callback of the
// transaction-aware condition variable).
type pendingOp struct {
	cv        *CondVar
	broadcast bool
}

// plainCS executes with the region lock explicitly held.
type plainCS struct {
	c    *sim.Context
	r    *Region
	busy bool // busy-wait instead of sleeping on condition variables
}

func (s *plainCS) Load(a sim.Addr) uint64     { return s.c.Load(a) }
func (s *plainCS) Store(a sim.Addr, v uint64) { s.c.Store(a, v) }
func (s *plainCS) StoreN(addrs []sim.Addr, vals []uint64) {
	s.c.StoreN(addrs, vals)
}
func (s *plainCS) Ctx() *sim.Context { return s.c }

func (s *plainCS) Wait(cv *CondVar) {
	if s.busy {
		// Listing 6: release the lock, give others a chance, retake it.
		s.r.mu.Unlock(s.c)
		s.c.Compute(s.c.Machine().Costs.PollGap)
		s.r.mu.Lock(s.c)
		return
	}
	// Waiter registration happens under the region lock.
	s.c.Store(cv.nWait, s.c.Load(cv.nWait)+1)
	cv.pthreadWait(s.c, s.r.mu)
	s.c.Store(cv.nWait, s.c.Load(cv.nWait)-1)
}

func (s *plainCS) Signal(cv *CondVar) {
	if s.busy {
		return // waiters poll the predicate; no wakeup needed
	}
	cv.signal(s.c)
}

func (s *plainCS) Broadcast(cv *CondVar) {
	if s.busy {
		return
	}
	cv.broadcast(s.c)
}

func (s *plainCS) Waiters(cv *CondVar) uint64 {
	if s.busy {
		return 0
	}
	return s.c.Load(cv.nWait)
}

// txCS executes inside an emulated hardware transaction; one serves every
// attempt of a Region.Do, and pending holds the current attempt's callbacks.
type txCS struct {
	t       *htm.Txn
	mode    LockMode
	pending []pendingOp
}

func (s *txCS) Load(a sim.Addr) uint64     { return s.t.Load(a) }
func (s *txCS) Store(a sim.Addr, v uint64) { s.t.Store(a, v) }

// StoreN stores one by one: a run taken in place could not stop at an
// access that dooms the transaction.
func (s *txCS) StoreN(addrs []sim.Addr, vals []uint64) {
	for i, a := range addrs {
		s.t.Store(a, vals[i])
	}
}
func (s *txCS) Ctx() *sim.Context { return s.t.Ctx() }

func (s *txCS) Wait(cv *CondVar) {
	switch s.mode {
	case ModeTSXAbort:
		// Unconditionally abort on touching a condition variable; the
		// fallback path manipulates it with the lock held.
		s.t.Abort(htm.Explicit)
	case ModeTSXCond:
		// Transaction-aware wait: register as a waiter and subscribe to the
		// sequence word, commit partial results, then park with futex
		// semantics (in Region.Do, which also deregisters on wake).
		expected := s.t.Load(cv.seq)
		s.t.Store(cv.nWait, s.t.Load(cv.nWait)+1)
		s.t.Commit()
		panic(waitRequest{cv: cv, expected: expected})
	case ModeTSXBusyWait:
		// Commit partial results and immediately re-execute the body.
		s.t.Commit()
		panic(waitRequest{busy: true})
	}
}

func (s *txCS) Signal(cv *CondVar) {
	switch s.mode {
	case ModeTSXAbort:
		// pthread_cond_signal performs a system call, aborting the
		// transaction; the fallback signals with the lock held.
		s.t.Abort(htm.SyscallAbort)
	case ModeTSXCond:
		// Register a callback to run after the transaction commits.
		s.pending = append(s.pending, pendingOp{cv: cv})
	case ModeTSXBusyWait:
		// Waiters poll; nothing to do.
	}
}

func (s *txCS) Broadcast(cv *CondVar) {
	switch s.mode {
	case ModeTSXAbort:
		s.t.Abort(htm.SyscallAbort)
	case ModeTSXCond:
		s.pending = append(s.pending, pendingOp{cv: cv, broadcast: true})
	case ModeTSXBusyWait:
	}
}

func (s *txCS) Waiters(cv *CondVar) uint64 {
	if s.mode == ModeTSXBusyWait {
		return 0
	}
	return s.t.Load(cv.nWait)
}

// tl2CS executes inside a TL2 software transaction. Monitor operations
// follow busy-wait semantics: a Wait discards the buffered (invisible)
// writes and restarts the body after a poll gap — TL2's lazy versioning
// means nothing was published, so the restart is a clean re-execution —
// and signals are unnecessary because every waiter polls. A *tl2CS is the
// attempt's *stm.Txn itself, so passing one as a CS allocates nothing.
type tl2CS stm.Txn

func (s *tl2CS) txn() *stm.Txn                          { return (*stm.Txn)(s) }
func (s *tl2CS) Load(a sim.Addr) uint64                 { return s.txn().Load(a) }
func (s *tl2CS) Store(a sim.Addr, v uint64)             { s.txn().Store(a, v) }
func (s *tl2CS) StoreN(addrs []sim.Addr, vals []uint64) { s.txn().StoreN(addrs, vals) }
func (s *tl2CS) Ctx() *sim.Context                      { return s.txn().Ctx() }

func (s *tl2CS) Wait(cv *CondVar) {
	// Unwind the attempt without committing; doTL2 polls and restarts.
	// No orec is locked mid-body (TL2 locks only at commit), so the panic
	// propagates cleanly through stm's recover.
	panic(waitRequest{busy: true})
}
func (s *tl2CS) Signal(cv *CondVar)         {}
func (s *tl2CS) Broadcast(cv *CondVar)      {}
func (s *tl2CS) Waiters(cv *CondVar) uint64 { return 0 }

// Do executes body as one critical section of the region under the module's
// mode. Body must be a re-executable closure and must follow monitor
// discipline: any predicate guarding a Wait is re-checked in a loop (or
// equivalently, tolerates the body restarting from the top).
func (r *Region) Do(c *sim.Context, body func(CS)) {
	switch r.lm.Mode {
	case ModeMutex:
		r.mu.Lock(c)
		body(&plainCS{c: c, r: r})
		r.mu.Unlock(c)
	case ModeMutexBusyWait:
		r.mu.Lock(c)
		body(&plainCS{c: c, r: r, busy: true})
		r.mu.Unlock(c)
	case ModeTL2:
		r.doTL2(c, body)
	default:
		r.doElided(c, body)
	}
}

// doTL2 runs body as a TL2 transaction, restarting after a poll gap whenever
// the body asks to wait for a monitor condition (TL2 retries conflicts
// internally, so a return without a wait is a commit).
func (r *Region) doTL2(c *sim.Context, body func(CS)) {
	for unwound(func() {
		r.lm.STM.Run(c, func(t *stm.Txn) { body((*tl2CS)(t)) })
	}) != nil {
		c.Compute(r.lm.M.Costs.PollGap)
	}
}

// doElided is the path shared by the three eliding modes: one pass through
// the module's elision site, running body on a txCS while the policy's
// budget lasts and then with the lock held on a plainCS (condition variables
// manipulated pthread style, or busy-waited for the busywait mode). If the
// committed body asked to wait, it waits and passes again with a fresh
// budget.
func (r *Region) doElided(c *sim.Context, body func(CS)) {
	lm := r.lm
	tx := &txCS{mode: lm.Mode}
	for {
		wait := unwound(func() {
			lm.el.Elide(c, r.locks[:], tm.ModulePolicy, func(tm.Tx) {
				tx.pending = tx.pending[:0] // an aborted attempt's callbacks never run
				if tx.t = lm.RT.Active(c); tx.t != nil {
					body(tx)
				} else {
					body(&plainCS{c: c, r: r, busy: lm.Mode == ModeTSXBusyWait})
				}
			})
		})
		r.flush(c, tx.pending)
		if wait == nil {
			return
		}
		if wait.busy {
			c.Compute(lm.M.Costs.PollGap)
		} else {
			wait.cv.futexWait(c, wait.expected)
			// Deregister: the restarted body will re-register if it must
			// wait again.
			ssync.AtomicAdd(c, wait.cv.nWait, ^uint64(0))
		}
	}
}

// unwound runs f, translating a waitRequest unwind into a non-nil result.
func unwound(f func()) (wait *waitRequest) {
	defer func() {
		if p := recover(); p != nil {
			wr, ok := p.(waitRequest)
			if !ok {
				panic(p)
			}
			wait = &wr
		}
	}()
	f()
	return nil
}

// flush executes condition-variable callbacks registered during a committed
// transaction.
func (r *Region) flush(c *sim.Context, pending []pendingOp) {
	for _, op := range pending {
		if op.broadcast {
			op.cv.broadcast(c)
		} else {
			op.cv.signal(c)
		}
	}
}
