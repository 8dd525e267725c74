package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// TestRunQueueMatchesFlatArgmin drives the tournament-tree run queue with a
// seeded random mix of push, pop-min and replace-top (the maybeYield
// handoff) and checks every step against a flat argmin over the queued
// keys: the same context must come out, and the empty/non-empty state and
// cached minimum must agree after every operation. Sizes cover the
// single-leaf tree (n=1, where the leaf is the root), powers of two and
// their neighbours (vacant padding leaves), and the 1024-context ceiling.
func TestRunQueueMatchesFlatArgmin(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 9, 63, 64, 65, 512, 1024} {
		// attach alone (no carriers) builds the queue; the largest
		// topology runs 512 threads, and n=1024 exercises the full
		// id field of the packed key on the same machine.
		m := New(benchScaleConfig(512))
		m.attach(n)
		rng := rand.New(rand.NewSource(int64(n)))

		// Model state: which contexts are queued. attach queues them all.
		queued := make([]bool, n)
		for i := range queued {
			queued[i] = true
		}
		var out []int // contexts not in the queue
		refMin := func() (int, bool) {
			best := -1
			for i, q := range queued {
				if q && (best < 0 || m.ctxs[i].key < m.ctxs[best].key) {
					best = i
				}
			}
			return best, best >= 0
		}
		// Clocks are drawn from a narrow band so many keys tie on clock and
		// the id field breaks the tie, as runnable contexts do in practice.
		rekey := func(c *Context) {
			clock := uint64(rng.Intn(4 + n/4))
			c.clock = clock
			c.key = clock<<keyIDBits | uint64(c.id)
		}
		check := func(step int, op string) {
			t.Helper()
			want, nonEmpty := refMin()
			if m.qempty() == nonEmpty {
				t.Fatalf("n=%d step %d (%s): qempty=%v, reference non-empty=%v", n, step, op, m.qempty(), nonEmpty)
			}
			if nonEmpty && m.qtopKey != m.ctxs[want].key {
				t.Fatalf("n=%d step %d (%s): cached min %#x, reference %#x", n, step, op, m.qtopKey, m.ctxs[want].key)
			}
		}
		check(-1, "attach")

		for step := 0; step < 20*n+200; step++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(out) > 0: // push
				j := rng.Intn(len(out))
				c := m.ctxs[out[j]]
				out[j] = out[len(out)-1]
				out = out[:len(out)-1]
				rekey(c)
				m.qpush(c)
				queued[c.id] = true
				check(step, "push")
			case op == 1 && !m.qempty(): // pop-min
				want, _ := refMin()
				got := m.popMin()
				if got.id != want {
					t.Fatalf("n=%d step %d: popMin = t%d, reference t%d", n, step, got.id, want)
				}
				queued[got.id] = false
				out = append(out, got.id)
				check(step, "pop")
			case op == 2 && len(out) > 0 && !m.qempty(): // replace-top
				j := rng.Intn(len(out))
				c := m.ctxs[out[j]]
				want, _ := refMin()
				rekey(c)
				got := m.replaceTop(c)
				if got.id != want {
					t.Fatalf("n=%d step %d: replaceTop = t%d, reference t%d", n, step, got.id, want)
				}
				queued[got.id] = false
				queued[c.id] = true
				out[j] = got.id
				check(step, "replace-top")
			}
		}
		// Drain: pop order must follow the reference to the end.
		for !m.qempty() {
			want, _ := refMin()
			if got := m.popMin(); got.id != want {
				t.Fatalf("n=%d drain: popMin = t%d, reference t%d", n, got.id, want)
			}
			queued[want] = false
		}
		check(-2, "drained")
	}
}

// TestBlockOnEmptyQueueDeadlocks: a context that blocks while no other
// context is queued must raise StallDeadlock — Block's emptiness test is
// the root sentinel, not a slice length.
func TestBlockOnEmptyQueueDeadlocks(t *testing.T) {
	m := New(DefaultConfig())
	_, err := m.RunE(1, func(c *Context) { c.Block() })
	var se *StallError
	if !errors.As(err, &se) || se.Kind != StallDeadlock {
		t.Fatalf("err = %v, want a %q stall", err, StallDeadlock)
	}
	// The machine stays usable: the next region rebuilds the queue.
	if res := m.Run(3, func(c *Context) { c.Compute(5) }); res.Cycles != 5 {
		t.Fatalf("cycles after recovery = %d, want 5", res.Cycles)
	}
}

// qempty reports whether no context is queued. A vacant leaf holds
// MaxUint64, which no real key reaches (clocks stay below 2^54).
func (m *Machine) qempty() bool { return m.qtopKey == ^uint64(0) }
