package sim

// Machine-model self-checks. The simulator's answers are only as good as its
// internal consistency: a duplicated L1 tag or a wrapped virtual clock would
// silently corrupt every cost and every transactional conflict downstream.
// With Config.Invariants set, the hot paths verify themselves inline (set
// integrity after every line install, clock monotonicity on every charge,
// and package htm's committed-write-set residency check) and panic with a
// typed *InvariantError on the first violation. The checks are off by
// default; the differential harness (internal/check) always arms them.

import "fmt"

// InvariantError reports a violated machine-model invariant. It is delivered
// by panic from inside a simulated region (the model is wrong — there is no
// meaningful way to continue the run), carrying enough context to localize
// the failure: which check fired, on which simulated thread, at what virtual
// time.
type InvariantError struct {
	// Point names the check that fired: "l1-set", "clock", "htm-writeset",
	// "mutex-unlock".
	Point string
	// Thread is the simulated thread id on whose behalf the check ran.
	Thread int
	// Clock is that thread's virtual time at the failure.
	Clock uint64
	// Detail describes the violation.
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant violated [%s] thread %d @ cycle %d: %s",
		e.Point, e.Thread, e.Clock, e.Detail)
}

// checkSet verifies one set's structural invariants and returns a
// description of the first violation, or "". Occupancy ≤ associativity is
// enforced by construction (the ways array is fixed at cacheWays), so the
// checks that can actually fail are: every valid way's tag maps to this set,
// no two valid ways carry the same tag (a duplicated line would double-count
// capacity and split transactional marks), and an invalid way carries no
// metadata (orphaned transactional marks would resurrect on the next
// install into that way).
func (c *Cache) checkSet(set int) string {
	tags := &c.tags[set]
	for w := range tags {
		if tags[w] == 0 {
			if c.meta[set][w] != 0 {
				return fmt.Sprintf("way %d invalid but meta plane holds %#x", w, c.meta[set][w])
			}
			continue
		}
		if setOf(tags[w]) != set {
			return fmt.Sprintf("way %d holds line %#x which maps to set %d", w, tags[w], setOf(tags[w]))
		}
		for w2 := w + 1; w2 < cacheWays; w2++ {
			if tags[w2] == tags[w] {
				return fmt.Sprintf("ways %d and %d both hold line %#x", w, w2, tags[w])
			}
		}
	}
	return ""
}

// VerifyCaches sweeps every set of every core's L1 with the same structural
// checks the Invariants hot path runs incrementally, returning the first
// violation as an error (nil when clean). The differential harness calls it
// after each engine run as an end-state audit; it is cheap enough (4 caches
// × 64 sets × 8 ways) to run after every workload.
func (m *Machine) VerifyCaches() error {
	for _, c := range m.caches {
		for set := 0; set < cacheSets; set++ {
			if d := c.checkSet(set); d != "" {
				return &InvariantError{Point: "l1-set",
					Detail: fmt.Sprintf("core %d set %d: %s", c.id, set, d)}
			}
		}
	}
	return m.verifyPresence()
}

// verifyPresence audits the line-presence directory against the tag planes:
// every resident line must carry its holder's bit, and every directory entry
// must name exactly the caches that hold the line. The directory is a pure
// lookup accelerator for the coherence probe, so any drift from the tags
// would silently skip invalidations — exactly the corruption this sweep is
// for.
func (m *Machine) verifyPresence() error {
	for _, c := range m.caches {
		for set := 0; set < cacheSets; set++ {
			for w := 0; w < cacheWays; w++ {
				tag := c.tags[set][w]
				if tag != 0 && m.pres.get(tag)&(1<<uint(c.id)) == 0 {
					return &InvariantError{Point: "l1-presence",
						Detail: fmt.Sprintf("core %d holds line %#x but the presence directory has no bit for it", c.id, tag)}
				}
			}
		}
	}
	for i, got := range m.pres {
		if got == 0 {
			continue
		}
		line := Addr(i) << 6
		var want uint64
		for _, c := range m.caches {
			tags := &c.tags[setOf(line)]
			for w := range tags {
				if tags[w] == line {
					want |= 1 << uint(c.id)
				}
			}
		}
		if want != got {
			return &InvariantError{Point: "l1-presence",
				Detail: fmt.Sprintf("presence directory entry for line %#x claims cores %#x, tags say %#x", line, got, want)}
		}
	}
	return nil
}

// AccessInFlight reports whether a context other than ctx is currently
// mid-access to line: its cache-state mutation (which may have invalidated
// ctx's copy and dropped its transactional marks) has happened, but its
// conflict hook — the model's defined conflict instant, deliberately placed
// after the scheduling point (see Context.access) — has not yet run. A
// transaction committing inside that window with the line unmarked is
// legitimate requester-wins racing, not lost speculative state; outside it,
// a missing mark means the model dropped state without aborting anyone.
// Only maintained under Config.Invariants.
func (m *Machine) AccessInFlight(ctx *Context, line Addr) bool {
	for _, c := range m.ctxs {
		if c != ctx && c.pendingLine == line {
			return true
		}
	}
	return false
}

// TxMarked reports whether ctx's core L1 currently holds line with ctx's
// transactional write (or read) mark. Package htm's commit path uses it,
// under Config.Invariants, to assert no transaction commits a torn write
// set: every line a committing transaction wrote must still be resident and
// write-marked (or a conflicting access must be in flight, about to doom
// someone — see AccessInFlight); otherwise the model was obliged to deliver
// a capacity abort instead.
func (m *Machine) TxMarked(ctx *Context, line Addr, write bool) bool {
	c := m.caches[ctx.core]
	w := c.lookup(line)
	if w < 0 {
		return false
	}
	meta := c.meta[setOf(line)][w]
	bit := uint32(1) << uint(ctx.slot)
	if write {
		return meta&(bit<<metaWShift) != 0
	}
	return meta&bit != 0
}
