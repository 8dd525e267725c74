// Package ssync provides the simulated synchronization primitives the
// paper's workloads are built from: pthread-style mutexes (spin-then-futex),
// pure spinlocks, condition variables, barriers, and LOCK-prefixed atomic
// operations — all with realistic cycle costs on the sim machine.
//
// Every lock's state word lives in simulated memory. That is load-bearing
// for lock elision: a transaction that elides a lock reads the lock word
// into its read set, so a non-transactional acquisition by another thread is
// an ordinary store that aborts the transaction through the regular
// conflict-detection machinery — exactly the interaction required by the
// Intel TSX specification ("the state of the lock is tested during the
// transactional execution").
package ssync

import (
	"math"

	"tsxhpc/internal/sim"
)

// Mutex is a pthread-style blocking mutex: a brief adaptive spin followed by
// a futex park. The lock word lives in simulated memory at Addr.
type Mutex struct {
	Addr    sim.Addr
	waiters []*sim.Context
}

// NewMutex allocates a mutex whose lock word occupies a private cache line.
func NewMutex(mem *sim.Memory) *Mutex {
	return &Mutex{Addr: mem.AllocLine(8)}
}

// NewMutexAt wraps an existing word address as a mutex (for lock arrays
// where several lock words intentionally share a line).
func NewMutexAt(a sim.Addr) *Mutex { return &Mutex{Addr: a} }

// Locked reports whether the mutex is currently held, as a timed read
// (used by transactions to subscribe to the lock word).
func (l *Mutex) Locked(c *sim.Context) bool { return c.Load(l.Addr) != 0 }

// TryLock attempts a non-blocking acquisition, as in omp_test_lock: one
// timed LOCK CMPXCHG of the word from 0 to 1.
func (l *Mutex) TryLock(c *sim.Context) bool {
	costs := c.Machine().Costs
	c.Compute(costs.MutexLock - costs.Atomic)
	if c.SpinOn(l.Addr, true, 0, 0) {
		c.Progress()
		return true
	}
	return false
}

// Lock acquires the mutex, spinning briefly and then parking on the futex.
// For the virtual-time profiler the acquisition attempt is PhaseSpin and the
// futex park PhaseWait; the caller's phase is restored on return.
func (l *Mutex) Lock(c *sim.Context) {
	costs := c.Machine().Costs
	prev := c.SetPhase(sim.PhaseSpin)
	c.Compute(costs.MutexLock - costs.Atomic)
	if c.SpinOn(l.Addr, true, costs.MutexSpin, costs.MutexSpinTries) {
		c.Progress()
		c.SetPhase(prev)
		return
	}
	// Park. Enqueue before the (yielding) futex charge so a racing Unlock
	// sees us; the wake-pending protocol in sim.Block covers the window.
	// Ownership is handed over directly by Unlock, so the word stays 1.
	l.waiters = append(l.waiters, c)
	c.SetPhase(sim.PhaseWait)
	c.Compute(costs.FutexBlock)
	c.Block()
	// Ownership was handed over by Unlock while we were parked.
	c.SetPhase(prev)
	c.Progress()
}

// Unlock releases the mutex, handing ownership to the oldest parked waiter
// if any (charging the futex wake latency to the waiter's resume time).
func (l *Mutex) Unlock(c *sim.Context) {
	costs := c.Machine().Costs
	if h := c.Machine().HoldStretchHook; h != nil {
		// Fault injection may stretch the critical section: extra cycles are
		// burned while the lock word is still set, lengthening the window in
		// which eliding transactions see LockBusy and waiters stay parked.
		if extra := h(c); extra != 0 {
			c.Compute(extra)
		}
	}
	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		c.Compute(costs.MutexUnlock + costs.FutexWakeCall)
		c.Wake(w, c.Now()+costs.FutexWake)
		return
	}
	l.checkHeld(c)
	c.Compute(costs.MutexUnlock)
	c.Store(l.Addr, 0)
	if len(l.waiters) > 0 {
		// Lost-wakeup window: a spinner can exhaust its spin budget and
		// enqueue itself between the waiter check above and the
		// word-clearing store — both sides of the store's scheduling
		// point — and then park after the word is already clear, so the
		// wake it is owed never comes (a real futex closes this window
		// by re-testing the word inside futex_wait). Hand ownership
		// straight to the late arriver: the word returns to 1 within
		// this same scheduling quantum, so no third thread can have
		// observed the transient 0, and schedules without the race are
		// bit-for-bit unchanged.
		c.Machine().Mem.WriteRaw(l.Addr, 1)
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		c.Compute(costs.FutexWakeCall)
		c.Wake(w, c.Now()+costs.FutexWake)
	}
}

// checkHeld panics with an *sim.InvariantError if the lock word is clear:
// unlocking an unheld mutex is always a caller bug (with waiters present the
// word legitimately stays 1 across handoffs, so the check only applies on
// the word-clearing path). The probe is an untimed ReadRaw, so healthy runs
// are bit-for-bit unaffected.
func (l *Mutex) checkHeld(c *sim.Context) {
	if c.Machine().Mem.ReadRaw(l.Addr) == 0 {
		panic(&sim.InvariantError{Point: "mutex-unlock", Thread: c.ID(), Clock: c.Now(),
			Detail: "unlock of unheld mutex (lock word already clear)"})
	}
}

// SpinLock is a test-and-test-and-set spinlock that never parks; waiting
// burns cycles (and, under Hyper-Threading, sibling throughput).
type SpinLock struct {
	Addr sim.Addr
}

// NewSpinLock allocates a spinlock on a private cache line.
func NewSpinLock(mem *sim.Memory) *SpinLock {
	return &SpinLock{Addr: mem.AllocLine(8)}
}

// Lock spins until the lock is acquired.
func (l *SpinLock) Lock(c *sim.Context) {
	costs := c.Machine().Costs
	prev := c.SetPhase(sim.PhaseSpin)
	// Test-and-test-and-set: spin on a plain read, then attempt the CAS.
	for !(c.SpinOn(l.Addr, false, costs.MutexSpin, math.MaxInt) && c.SpinOn(l.Addr, true, 0, 0)) {
		c.Compute(costs.MutexSpin)
	}
	c.Progress()
	c.SetPhase(prev)
}

// TryLock attempts a single acquisition without spinning.
func (l *SpinLock) TryLock(c *sim.Context) bool {
	if c.SpinOn(l.Addr, false, 0, 0) && c.SpinOn(l.Addr, true, 0, 0) {
		c.Progress()
		return true
	}
	return false
}

// Unlock releases the spinlock.
func (l *SpinLock) Unlock(c *sim.Context) {
	if c.Machine().Mem.ReadRaw(l.Addr) == 0 {
		panic(&sim.InvariantError{Point: "mutex-unlock", Thread: c.ID(), Clock: c.Now(),
			Detail: "unlock of unheld spinlock (lock word already clear)"})
	}
	c.Compute(c.Machine().Costs.MutexUnlock)
	c.Store(l.Addr, 0)
}

// Cond is a pthread-style condition variable implemented over futex
// wait/wake, used with a Mutex per the classic monitor pattern
// (Listings 4 and 5 in the paper).
type Cond struct {
	waiters []*sim.Context
}

// NewCond creates a condition variable.
func NewCond() *Cond { return &Cond{} }

// Wait atomically releases l and parks the calling thread until signaled,
// then reacquires l before returning. As in pthreads, the caller must
// re-check the monitor predicate in a loop.
func (cv *Cond) Wait(c *sim.Context, l *Mutex) {
	costs := c.Machine().Costs
	cv.waiters = append(cv.waiters, c)
	l.Unlock(c)
	prev := c.SetPhase(sim.PhaseWait)
	c.Compute(costs.FutexBlock)
	c.Block()
	c.SetPhase(prev)
	l.Lock(c)
}

// WaitNoLock parks without any lock interaction (for the transaction-aware
// condition variable in package core, which must not hold a lock to wait).
func (cv *Cond) WaitNoLock(c *sim.Context) {
	cv.waiters = append(cv.waiters, c)
	prev := c.SetPhase(sim.PhaseWait)
	c.Compute(c.Machine().Costs.FutexBlock)
	c.Block()
	c.SetPhase(prev)
}

// Signal wakes one waiter, if any. The wake is a system call.
func (cv *Cond) Signal(c *sim.Context) {
	costs := c.Machine().Costs
	c.Syscall(costs.FutexWakeCall)
	if len(cv.waiters) == 0 {
		return
	}
	w := cv.waiters[0]
	cv.waiters = cv.waiters[1:]
	c.Wake(w, c.Now()+costs.FutexWake)
}

// Broadcast wakes every waiter.
func (cv *Cond) Broadcast(c *sim.Context) {
	costs := c.Machine().Costs
	c.Syscall(costs.FutexWakeCall)
	for _, w := range cv.waiters {
		c.Wake(w, c.Now()+costs.FutexWake)
	}
	cv.waiters = cv.waiters[:0]
}

// HasWaiters reports whether any thread is parked on the condition variable
// (untimed; used by signalers that track waiter counts separately in real
// code).
func (cv *Cond) HasWaiters() bool { return len(cv.waiters) > 0 }

// Barrier is a centralized barrier; the arrival count lives in simulated
// memory and is updated with an atomic RMW, so arrivals contend for the
// counter line like a real centralized barrier.
type Barrier struct {
	n      int
	parked []*sim.Context
	addr   sim.Addr
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(mem *sim.Memory, n int) *Barrier {
	return &Barrier{n: n, addr: mem.AllocLine(8)}
}

// Arrive blocks until all n participants have arrived. The whole episode —
// counter update, park, release — is PhaseWait for the virtual-time profiler.
func (b *Barrier) Arrive(c *sim.Context) {
	costs := c.Machine().Costs
	prev := c.SetPhase(sim.PhaseWait)
	defer c.SetPhase(prev)
	c.Compute(costs.Atomic)
	_, arrived := c.RMW(b.addr, func(v uint64) uint64 { return v + 1 })
	if int(arrived) == b.n {
		// Last arriver releases everyone and resets the episode.
		c.RMW(b.addr, func(uint64) uint64 { return 0 })
		c.Compute(costs.FutexWakeCall)
		waiters := b.parked
		b.parked = nil
		for _, w := range waiters {
			c.Wake(w, c.Now()+costs.FutexWake)
		}
		return
	}
	b.parked = append(b.parked, c)
	c.Compute(costs.FutexBlock)
	c.Block()
}
