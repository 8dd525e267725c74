package sim

import (
	"fmt"
	"strings"
)

// StallKind classifies why a simulated region stopped making progress.
type StallKind string

const (
	// StallDeadlock: no runnable context remains but unfinished (blocked)
	// contexts exist — a wake that will never arrive.
	StallDeadlock StallKind = "deadlock"
	// StallLivelock: the no-global-progress watchdog expired — threads keep
	// burning virtual cycles but nothing commits, acquires a lock, or
	// finishes within the configured StallCycles window.
	StallLivelock StallKind = "livelock"
	// StallCycleBudget: a thread's virtual clock passed the hard MaxCycles
	// budget configured for the run.
	StallCycleBudget StallKind = "cycle-budget"
)

// ThreadState is one simulated thread's diagnostic snapshot at stall time.
type ThreadState struct {
	ID    int
	Core  int
	State string // "runnable", "running", "blocked", "done"
	Clock uint64
	InTxn bool
}

// StallError reports that a simulated region cannot (or may never) complete:
// a deadlock, a detected livelock, or an exhausted virtual-cycle budget. It
// carries the full per-thread state dump that the old deadlock panic printed,
// so callers can contain the failure per experiment while preserving the
// diagnostics. The simulator raises it as a panic value from Run; RunE and
// the runner job engine convert it into an ordinary error.
type StallError struct {
	Kind StallKind
	// LastRunning is the thread that was executing when the stall was
	// detected.
	LastRunning int
	// Limit is the virtual-cycle budget that was exceeded (0 for deadlock).
	Limit uint64
	// Threads holds every context's state at detection time, ordered by id.
	Threads []ThreadState
}

// Error renders the stall with the thread-state dump of the historical
// deadlock panic message.
func (e *StallError) Error() string {
	var b strings.Builder
	switch e.Kind {
	case StallDeadlock:
		fmt.Fprintf(&b, "sim: deadlock — no runnable contexts (last running t%d)", e.LastRunning)
	case StallLivelock:
		fmt.Fprintf(&b, "sim: livelock — no global progress within %d virtual cycles (last running t%d)", e.Limit, e.LastRunning)
	case StallCycleBudget:
		fmt.Fprintf(&b, "sim: virtual-cycle budget of %d exceeded (last running t%d)", e.Limit, e.LastRunning)
	default:
		fmt.Fprintf(&b, "sim: stall (%s, last running t%d)", e.Kind, e.LastRunning)
	}
	for _, t := range e.Threads {
		fmt.Fprintf(&b, "\nt%d(core %d): state=%s clock=%d intxn=%v", t.ID, t.Core, t.State, t.Clock, t.InTxn)
	}
	return b.String()
}

func stateName(s ctxState) string {
	switch s {
	case ctxRunnable:
		return "runnable"
	case ctxBlocked:
		return "blocked"
	case ctxDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// newStall snapshots every context's state into a StallError.
func (m *Machine) newStall(kind StallKind, last *Context, limit uint64) *StallError {
	e := &StallError{Kind: kind, LastRunning: last.id, Limit: limit}
	for _, x := range m.ctxs {
		e.Threads = append(e.Threads, ThreadState{
			ID:    x.id,
			Core:  x.core,
			State: stateName(x.state),
			Clock: x.clock,
			InTxn: x.InTxn,
		})
	}
	return e
}

// NewStall builds a StallError for the calling context's machine with the
// caller recorded as the last running thread. Higher layers use it to raise
// typed stalls of their own (e.g. the TL2 retry-budget guard) that unwind
// and contain exactly like the simulator's watchdog stalls.
func (c *Context) NewStall(kind StallKind, limit uint64) *StallError {
	return c.m.newStall(kind, c, limit)
}
