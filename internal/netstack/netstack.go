// Package netstack implements a parallel user-level TCP/IP stack in the
// style of the PARSEC 3.0 benchmark suite's BSD-derived stack, used in
// Section 6 of the paper. The stack's distinguishing property — and the
// reason the paper studies it — is that all synchronization (locks and
// condition variables) goes through a single locking module (package
// core.LockModule), so swapping that module re-synchronizes the entire
// stack without touching any protocol or application code. The five module
// implementations of Figure 6 (mutex, tsx.abort, tsx.cond, mutex.busywait,
// tsx.busywait) plug in unchanged.
//
// The stack provides connections of two one-way channels. Each channel owns
// a receive socket: a ring of packet descriptors in simulated memory
// guarded by the channel's lock region, with not-empty/not-full monitor
// conditions for blocking readers and writers (Listings 4/5's classic
// pattern). Senders signal only when the socket records parked waiters, as
// the BSD sowakeup path does. Per-packet protocol work (header processing,
// checksum) is charged outside the critical section; the payload copy into
// the socket buffer (sbappend) happens inside it, as in BSD.
package netstack

import (
	"fmt"

	"tsxhpc/internal/core"
	"tsxhpc/internal/sim"
)

// Socket ring-buffer field offsets (words in simulated memory).
const (
	sbHead   = 0  // next slot to pop
	sbTail   = 8  // next slot to push
	sbCount  = 16 // descriptors queued
	sbClosed = 24 // sender closed the channel
	sbBytes  = 32 // total payload bytes ever enqueued
	sbRing   = 64 // ring entries start here (2 words each: bytes, seq)
)

// Costs of the protocol layers (cycles).
const (
	headerCost   = 700 // IP+TCP processing: demux, checksum, ACKs, timers
	perByteShift = 4   // payload copy: bytes >> 4 cycles (inside the CS)
)

// Stack is one user-level TCP/IP stack instance bound to a locking module.
// Like the PARSEC port of the BSD stack, it synchronizes through a single
// global lock domain: every socket operation enters the same region. Under
// plain mutexes this serializes the whole stack; under transactional
// elision, operations on different connections run concurrently because
// their data does not overlap — unless something explicitly acquires the
// lock, which aborts every in-flight elided section stack-wide.
type Stack struct {
	M  *sim.Machine
	LM *core.LockModule
	// domains are the stack's lock domains. The paper configuration is one
	// global domain (domains[0], what New builds); NewSharded splits
	// synchronization across several domains so connection groups contend
	// only within their shard — the fine-grained-locking point of the
	// Section 6 scaling story.
	domains []*core.Region
	region  *core.Region // domains[0], the default for NewConn
}

// New creates a stack over machine m using the given locking-module mode,
// with the single global lock domain of the PARSEC port.
func New(m *sim.Machine, mode core.LockMode) *Stack {
	return NewSharded(m, mode, 1)
}

// NewSharded creates a stack whose synchronization is split across `domains`
// independent lock domains (each its own mutex or elision region under the
// module's mode). NewConnOn places a connection in a specific domain;
// NewConn keeps using domain 0. domains < 1 is treated as 1.
func NewSharded(m *sim.Machine, mode core.LockMode, domains int) *Stack {
	if domains < 1 {
		domains = 1
	}
	lm := core.NewLockModule(m, mode)
	st := &Stack{M: m, LM: lm, domains: make([]*core.Region, domains)}
	for i := range st.domains {
		st.domains[i] = lm.NewRegion()
	}
	st.region = st.domains[0]
	return st
}

// Endpoint is the receive side of a one-way channel: a socket buffer, its
// lock region, and its monitor conditions.
type Endpoint struct {
	st       *Stack
	region   *core.Region
	notEmpty *core.CondVar
	notFull  *core.CondVar
	base     sim.Addr
	cap      int
}

func (e *Endpoint) slot(i uint64) sim.Addr {
	return e.base + sbRing + sim.Addr((i%uint64(e.cap))*16)
}

// newEndpoint allocates a socket with the given ring capacity in the given
// lock domain.
func (st *Stack) newEndpoint(r *core.Region, capacity int) *Endpoint {
	e := &Endpoint{
		st:       st,
		region:   r,
		notEmpty: st.LM.NewCond(),
		notFull:  st.LM.NewCond(),
		base:     st.M.Mem.AllocLine(sbRing + 16*capacity),
		cap:      capacity,
	}
	return e
}

// Conn is a bidirectional connection: client-to-server and server-to-client
// channels.
type Conn struct {
	C2S *Endpoint
	S2C *Endpoint
}

// NewConn creates a connected socket pair with the given per-direction ring
// capacity (packets) in the stack's default lock domain.
func (st *Stack) NewConn(capacity int) *Conn {
	return st.NewConnOn(0, capacity)
}

// NewConnOn creates a connection whose endpoints both live in lock domain
// `domain` (mod the stack's domain count), so connection groups can be
// sharded across domains.
func (st *Stack) NewConnOn(domain, capacity int) *Conn {
	r := st.domains[domain%len(st.domains)]
	return &Conn{C2S: st.newEndpoint(r, capacity), S2C: st.newEndpoint(r, capacity)}
}

// Send enqueues one packet of the given payload size, blocking while the
// ring is full (monitor pattern: the wait predicate is re-checked in a
// loop, so the body also tolerates transactional restart).
func (e *Endpoint) Send(c *sim.Context, bytes int, seq uint64) {
	c.Compute(headerCost)
	e.region.Do(c, func(cs core.CS) {
		for cs.Load(e.base+sbCount) >= uint64(e.cap) {
			cs.Wait(e.notFull)
		}
		tail := cs.Load(e.base + sbTail)
		cs.Store(e.slot(tail), uint64(bytes))
		cs.Store(e.slot(tail)+8, seq)
		cs.Store(e.base+sbTail, tail+1)
		cs.Store(e.base+sbCount, cs.Load(e.base+sbCount)+1)
		cs.Store(e.base+sbBytes, cs.Load(e.base+sbBytes)+uint64(bytes))
		// Payload copy into the socket buffer (sbappend) under the lock.
		cs.Ctx().Compute(uint64(bytes >> perByteShift))
		// sowakeup: only issue the wake system call if a reader is parked.
		if cs.Waiters(e.notEmpty) > 0 {
			cs.Signal(e.notEmpty)
		}
	})
}

// Recv dequeues one packet, blocking while the ring is empty. It returns
// ok=false when the channel is closed and drained.
func (e *Endpoint) Recv(c *sim.Context) (bytes int, seq uint64, ok bool) {
	e.region.Do(c, func(cs core.CS) {
		bytes, seq, ok = 0, 0, false
		for cs.Load(e.base+sbCount) == 0 {
			if cs.Load(e.base+sbClosed) != 0 {
				return
			}
			cs.Wait(e.notEmpty)
		}
		head := cs.Load(e.base + sbHead)
		bytes = int(cs.Load(e.slot(head)))
		seq = cs.Load(e.slot(head) + 8)
		ok = true
		cs.Store(e.base+sbHead, head+1)
		cs.Store(e.base+sbCount, cs.Load(e.base+sbCount)-1)
		// Copy out to the application buffer under the lock.
		cs.Ctx().Compute(uint64(bytes >> perByteShift))
		if cs.Waiters(e.notFull) > 0 {
			cs.Signal(e.notFull)
		}
	})
	if ok {
		c.Compute(headerCost)
	}
	return bytes, seq, ok
}

// SendBatch enqueues n packets of the given payload size with consecutive
// sequence numbers starting at seq0, filling as much free ring space as it
// can per critical section instead of entering the lock domain once per
// packet. Per-packet protocol work (headerCost) is still charged per packet,
// outside the critical section: batching amortizes synchronization, not
// protocol processing.
func (e *Endpoint) SendBatch(c *sim.Context, bytes int, seq0 uint64, n int) {
	done := 0
	for done < n {
		burst := 0
		e.region.Do(c, func(cs core.CS) {
			burst = 0 // the body may restart under transactional modes
			cnt := cs.Load(e.base + sbCount)
			for cnt >= uint64(e.cap) {
				cs.Wait(e.notFull)
				cnt = cs.Load(e.base + sbCount)
			}
			free := int(uint64(e.cap) - cnt)
			if left := n - done; free > left {
				free = left
			}
			tail, total := cs.Load(e.base+sbTail), free*bytes
			addrs, vals := cs.Ctx().StoreBuf(2*free + 2) // descriptors, tail, count
			for i := 0; i < free; i, tail = i+1, tail+1 {
				addrs[2*i], vals[2*i] = e.slot(tail), uint64(bytes)
				addrs[2*i+1], vals[2*i+1] = e.slot(tail)+8, seq0+uint64(done+i)
			}
			addrs[2*free], vals[2*free] = e.base+sbTail, tail
			addrs[2*free+1], vals[2*free+1] = e.base+sbCount, cnt+uint64(free)
			cs.StoreN(addrs, vals) // one run (the hot calls below keep their lines)
			cs.Store(e.base+sbBytes, cs.Load(e.base+sbBytes)+uint64(total))
			// One batched sbappend copy under the lock.
			cs.Ctx().Compute(uint64(total >> perByteShift))
			burst = free
			if cs.Waiters(e.notEmpty) > 0 {
				cs.Signal(e.notEmpty)
			}
		})
		c.Compute(uint64(burst) * headerCost)
		done += burst
	}
}

// RecvBatch dequeues up to max queued packets in one critical section,
// returning how many were taken, their total payload bytes, and the sequence
// number of the first. ok=false means the channel is closed and drained.
func (e *Endpoint) RecvBatch(c *sim.Context, max int) (n, totalBytes int, firstSeq uint64, ok bool) {
	e.region.Do(c, func(cs core.CS) {
		n, totalBytes, firstSeq, ok = 0, 0, 0, false
		cnt := cs.Load(e.base + sbCount)
		for cnt == 0 {
			if cs.Load(e.base+sbClosed) != 0 {
				return
			}
			cs.Wait(e.notEmpty)
			cnt = cs.Load(e.base + sbCount)
		}
		take := int(cnt)
		if take > max {
			take = max
		}
		head := cs.Load(e.base + sbHead)
		for i := 0; i < take; i++ {
			totalBytes += int(cs.Load(e.slot(head)))
			if i == 0 {
				firstSeq = cs.Load(e.slot(head) + 8)
			}
			head++
		}
		n, ok = take, true
		addrs, vals := cs.Ctx().StoreBuf(2) // head and count, one run
		addrs[0], addrs[1], vals[0], vals[1] = e.base+sbHead, e.base+sbCount, head, cnt-uint64(take)
		cs.StoreN(addrs, vals) // then one batched copy-out under the lock
		cs.Ctx().Compute(uint64(totalBytes >> perByteShift))
		if cs.Waiters(e.notFull) > 0 {
			cs.Signal(e.notFull)
		}
	})
	if ok {
		c.Compute(uint64(n) * headerCost)
	}
	return n, totalBytes, firstSeq, ok
}

// Close marks the channel closed and wakes all parked readers.
func (e *Endpoint) Close(c *sim.Context) {
	e.region.Do(c, func(cs core.CS) {
		cs.Store(e.base+sbClosed, 1)
		if cs.Waiters(e.notEmpty) > 0 {
			cs.Broadcast(e.notEmpty)
		}
	})
}

// BytesEnqueued reports the total payload bytes ever sent through the
// endpoint (untimed; for bandwidth accounting and validation).
func (e *Endpoint) BytesEnqueued() uint64 {
	return e.st.M.Mem.ReadRaw(e.base + sbBytes)
}

// Pending reports the descriptors currently queued (untimed).
func (e *Endpoint) Pending() int {
	return int(e.st.M.Mem.ReadRaw(e.base + sbCount))
}

// CheckDrained verifies the endpoint's final state: closed, empty, and
// head == tail.
func (e *Endpoint) CheckDrained() error {
	mem := e.st.M.Mem
	if mem.ReadRaw(e.base+sbClosed) != 1 {
		return fmt.Errorf("netstack: endpoint not closed")
	}
	if n := mem.ReadRaw(e.base + sbCount); n != 0 {
		return fmt.Errorf("netstack: %d packets left in ring", n)
	}
	if mem.ReadRaw(e.base+sbHead) != mem.ReadRaw(e.base+sbTail) {
		return fmt.Errorf("netstack: head/tail mismatch")
	}
	return nil
}
