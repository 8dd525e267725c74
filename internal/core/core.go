// Package core is the Intel TSX-enabled synchronization library this
// repository reproduces from the paper: the programming techniques that turn
// raw transactional hardware (package htm) into application-level speedup.
//
// It provides:
//
//   - Elide / ElidedLock — RTM-based elision of an individual lock, with the
//     paper's retry policy (Section 3): test the lock inside the
//     transaction, retry up to MaxRetries times, wait out a busy lock, fall
//     back to explicit acquisition on persistent failure or no-retry aborts.
//   - ElideLockSet — "lockset elision" (Section 5.2.1): replace the
//     acquisition of a *set* of locks with a single transactional begin,
//     as used for physicsSolver's per-object lock pairs and graphCluster's
//     try-lock/set-lock dance (Listing 1).
//   - DoCoarsened — "dynamic transactional coarsening" (Section 5.2.2,
//     Listing 3): batch several dynamic instances of the same critical
//     section into one transactional region to amortize begin/commit costs.
//     (Static coarsening is a source-level restructuring; the workloads in
//     internal/apps apply it directly.)
//   - LockModule / Region / CondVar — the pluggable locking module of the
//     user-level TCP/IP stack study (Section 6), with all five
//     implementations compared in Figure 6, including the
//     transaction-aware condition variable.
package core

import (
	"sort"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// DefaultMaxRetries is the transactional retry budget before falling back to
// the lock; the paper reports 5 as the best overall setting for its hardware
// and workloads.
const DefaultMaxRetries = 5

// Elide executes body as a critical section protected by mu, transactionally
// eliding the lock via rt. Body must be a re-executable closure.
func Elide(rt *htm.Runtime, c *sim.Context, mu *ssync.Mutex, maxRetries int, body func(tm.Tx)) {
	ElideSet(rt, c, []*ssync.Mutex{mu}, maxRetries, body)
}

// ElideSet executes body as a critical section protected by the given set of
// locks, replacing the whole set of acquisitions with a single transactional
// begin (lockset elision). Each lock's word is read inside the transaction,
// so an explicit acquisition of any member aborts the speculation. The
// fallback acquires every lock in address order (avoiding deadlock) and runs
// body non-speculatively.
func ElideSet(rt *htm.Runtime, c *sim.Context, locks []*ssync.Mutex, maxRetries int, body func(tm.Tx)) {
	costs := c.Machine().Costs
	tries := uint64(0)
	for attempt := 0; attempt < maxRetries; attempt++ {
		tries++
		cause, noRetry := rt.Try(c, func(t *htm.Txn) {
			for _, mu := range locks {
				if t.Load(mu.Addr) != 0 {
					t.Abort(htm.LockBusy)
				}
			}
			body(tm.HTMTx(t))
		})
		if cause == htm.NoAbort {
			// Probe handles are resolved here, off the retry loop, rather than
			// held in a struct: ElideSet is a free function with no per-site
			// state to cache them in. ProbeSet is nil (one check) when off.
			if ps := c.Machine().ProbeSet(); ps != nil {
				ps.Hist("tsx/site/lockset/attempts").Observe(tries)
			}
			return
		}
		if noRetry {
			break
		}
		switch cause {
		case htm.LockBusy:
			// Bounded wait (see tm.System.elide): an unbounded spin can
			// livelock against a steady stream of fallback lock hand-offs.
			prev := c.SetPhase(sim.PhaseSpin)
			for _, mu := range locks {
				c.SpinOn(mu.Addr, false, costs.MutexSpin, 4*costs.MutexSpinTries)
			}
			c.SetPhase(prev)
		case htm.Conflict:
			prev := c.SetPhase(sim.PhaseSpin)
			c.Compute(uint64(c.Rand.Int63n(int64(16*(attempt+1)))) + 1)
			c.SetPhase(prev)
		case htm.Spurious:
			// Injected environmental abort: always retryable, backed off
			// exponentially (bounded) so a disturbance burst cannot consume
			// the whole retry budget. Unreachable — and RNG-silent — unless
			// fault injection is active.
			prev := c.SetPhase(sim.PhaseSpin)
			c.Compute(uint64(c.Rand.Int63n(tm.SpuriousBackoffMax(attempt))) + 1)
			c.SetPhase(prev)
		}
	}
	rt.Stats.Fallback++
	if ps := c.Machine().ProbeSet(); ps != nil {
		ps.Hist("tsx/site/lockset/attempts").Observe(tries)
		ps.Counter("tsx/site/lockset/fallbacks").Inc()
	}
	ordered := make([]*ssync.Mutex, len(locks))
	copy(ordered, locks)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Addr < ordered[j].Addr })
	// Deduplicate: a lockset may name the same lock several times (e.g. two
	// batched constraints sharing an object); acquiring it twice would
	// self-deadlock.
	uniq := ordered[:0]
	for i, mu := range ordered {
		if i == 0 || mu != ordered[i-1] {
			uniq = append(uniq, mu)
		}
	}
	f0 := c.Now()
	for _, mu := range uniq {
		mu.Lock(c)
	}
	lockAt := c.Now()
	prev := c.SetPhase(sim.PhaseSerial)
	body(tm.PlainTx(c))
	for i := len(uniq) - 1; i >= 0; i-- {
		uniq[i].Unlock(c)
	}
	c.SetPhase(prev)
	if ps := c.Machine().ProbeSet(); ps != nil {
		ps.Counter("tsx/site/lockset/fallback-cycles").Add(c.Now() - lockAt)
	}
	c.EmitSpan(f0, c.Now()-f0, "fallback", "lockset:fallback")
}

// ElidedLock pairs a mutex with an HTM runtime so call sites read like a
// plain lock API.
type ElidedLock struct {
	RT         *htm.Runtime
	Mu         *ssync.Mutex
	MaxRetries int
}

// NewElidedLock allocates an elidable lock on machine m using runtime rt.
func NewElidedLock(rt *htm.Runtime, m *sim.Machine) *ElidedLock {
	return &ElidedLock{RT: rt, Mu: ssync.NewMutex(m.Mem), MaxRetries: DefaultMaxRetries}
}

// Do runs body as a critical section under the (elided) lock.
func (l *ElidedLock) Do(c *sim.Context, body func(tm.Tx)) {
	Elide(l.RT, c, l.Mu, l.MaxRetries, body)
}

// DoCoarsened executes items [0,n) where each item is one logical critical
// section, dynamically batching gran consecutive items into a single
// transactional region (Listing 3's TXN_GRAN pattern). With gran == 1 it
// degenerates to one region per item. The batching is per-thread and does
// not change which items execute, only how many begin/commit pairs are paid.
func DoCoarsened(sys *tm.System, c *sim.Context, n, gran int, item func(tx tm.Tx, i int)) {
	if gran < 1 {
		gran = 1
	}
	for start := 0; start < n; start += gran {
		end := start + gran
		if end > n {
			end = n
		}
		sys.Atomic(c, func(tx tm.Tx) {
			for i := start; i < end; i++ {
				item(tx, i)
			}
		})
	}
}
