package sim

// iter.Pull implementation of the symmetric coroutine slot (see coro.go),
// compiled into every build: the only backend where coro_portable.go
// applies, and the target the amd64 fast path degrades to (coro_runtime.go).
// next and yield are both the runtime's coroswitch on the one coro Pull
// creates; they differ only in Pull's alternation check, so the slot keeps a
// parity bit and calls next on even switches and yield on odd ones. A
// returning carrier exits through coroexit as on the fast path, so the drain
// chain is unchanged, and stop is never needed: every carrier runs to
// completion at the region drain.

import "iter"

// coro is the symmetric slot. The fast path never dereferences it: runtime
// newcoro returns a pointer into the runtime's own coro allocation, which Go
// code only passes back to coroswitch (the GC scans that object by its
// allocation's type info, not by this declaration). The iter.Pull path
// allocates the struct itself.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool // set by the carrier goroutine on first switch-in
	odd   bool                // an odd number of switches have used this slot
}

// coroDegraded is set once, during init on the fast-path build, when the
// runtime-coroutine backend is unavailable (discovery failure or failed
// self-test). It never changes after init, so a process runs exactly one
// backend and no slot ever sees mixed semantics.
var coroDegraded bool

// SchedulerBackend reports which coroutine backend drives the scheduler's
// stack switches: "runtime-coro" (discovered runtime primitives) or
// "iter-pull" (the portable slot on iter.Pull). Results are byte-identical
// either way; this is a host-performance diagnostic.
func SchedulerBackend() string {
	if !coroFastBuild || coroDegraded {
		return "iter-pull"
	}
	return "runtime-coro"
}

// pullNewcoro creates a coro holding a fresh goroutine that runs f on its
// first switch-in. When f returns, the goroutine releases whichever party is
// then parked in the creation slot and exits (the runtime's coroexit
// semantics).
func pullNewcoro(f func(*coro)) *coro {
	c := new(coro)
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		f(c)
	})
	return c
}

// pullCoroswitch releases the goroutine parked in c and parks the caller
// there. The parity flips before the switch: once control leaves, the next
// party to switch on c may be any goroutine.
func pullCoroswitch(c *coro) {
	if c.odd = !c.odd; c.odd {
		c.next()
	} else {
		c.yield(struct{}{})
	}
}
