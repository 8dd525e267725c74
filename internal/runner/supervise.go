package runner

// Supervision: containment and quarantine, the failure handling between the
// job engine and the thousands-of-cells sweeps it runs.
//
//   - Containment: the inject hook and the store probe run under a recover
//     on the submitting goroutine, fn under one on its worker. A panicking
//     job becomes one failed future; workers and every other job keep
//     running. Error panics (the simulator raises *sim.StallError this way)
//     stay reachable through the error chain.
//   - Quarantine: every failed job is recorded. A simulation cell is a pure
//     function of its key — every simulated machine is a closed deterministic
//     system — so rerunning a failed cell only reproduces the failure; the
//     sweep completes without it and Quarantined lists it.
//
// Resume needs no layer of its own: a persistent Store saves each finished
// cell atomically, so rerunning an interrupted sweep against the same store
// serves the finished cells and simulates only the rest.
//
// Happy-path cost: one nil check for the inject hook per job, and no extra
// locking unless the job produced events or failed. A store hit settles on
// the submitting goroutine, so it costs no goroutine and no worker slot.

import (
	"fmt"
	"sort"
)

// panicError converts a recovered panic value into the job's error.
func panicError(key Key, p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("runner: job %q panicked: %w", key, err)
	}
	return fmt.Errorf("runner: job %q panicked: %v", key, p)
}

// settle finishes a job: event accounting, quarantine of a failure, and
// waking the waiters — in that order, so Stats() deltas taken after Wait are
// exact. A job that ran on a worker releases its slot first.
func (e *Engine) settle(key Key, j *job) {
	if j.events != 0 || j.err != nil {
		e.mu.Lock()
		e.events += j.events
		if j.err != nil {
			e.quarantined = append(e.quarantined, key)
		}
		e.mu.Unlock()
	}
	j.done.Done()
}

// SetInject installs a hook consulted before every job's store probe: a
// non-nil error fails (and quarantines) the job without running it. It must
// be a pure function of the key; runopts builds the -poison hook on it. Call
// it before the first submission.
func (e *Engine) SetInject(inject func(Key) error) {
	e.mu.Lock()
	e.inject = inject
	e.mu.Unlock()
}

// Quarantined returns the keys of failed jobs, sorted — the same list at any
// host parallelism. Call after Wait-ing all futures.
func (e *Engine) Quarantined() []Key {
	e.mu.Lock()
	out := append([]Key(nil), e.quarantined...)
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
