// Package runner is the experiment job engine: it expresses each simulation
// cell — one (workload, mode, threads, config) execution on a private
// sim.Machine — as a keyed job, fans jobs out across host worker goroutines,
// and memoizes results so that every distinct cell simulates at most once
// per process no matter how many experiments request it.
//
// Host parallelism cannot perturb simulated results: a job owns its machine
// and every machine is a deterministic closed system (per-context seeded
// RNGs, virtual clocks, no wall-clock inputs), so a cell's result is a pure
// function of its key. The engine only changes *when* a cell runs on the
// host, never *what* it computes, and callers collect futures in a fixed
// order, so rendered output is byte-identical to a serial run.
package runner

import (
	"fmt"
	"runtime"
	"sync"
)

// Key identifies one memoizable simulation cell. Keys are namespaced by
// convention ("stamp/bayes/tsx/4T"); two submissions with equal keys must
// denote the same computation.
type Key string

// Stats summarizes engine activity.
type Stats struct {
	// Workers is the host worker-goroutine bound.
	Workers int
	// Executed counts jobs actually run (simulated) this process: unique
	// keys minus persistent-store hits.
	Executed uint64
	// Deduped counts submissions served from the in-process memo table
	// instead of re-simulating (includes submissions that attached to an
	// in-flight job).
	Deduped uint64
	// Events is the total number of simulated timed events across executed
	// jobs whose results implement Eventer. Persistent-store hits do not
	// contribute: no simulation ran for them.
	Events uint64

	// CacheHits counts jobs served from the persistent result store
	// (runner.Store) instead of being executed.
	CacheHits uint64
	// CacheMisses counts jobs the persistent store had no entry for.
	CacheMisses uint64
	// CacheInvalid counts persistent-store entries that existed but failed
	// verification (truncated, corrupt, stale schema); such jobs are
	// re-executed and the entry rewritten.
	CacheInvalid uint64

	// Quarantined counts failed cells (error, panic, or injected failure);
	// the rest of the sweep completes without them (see Quarantined).
	Quarantined uint64
}

// LoadStatus is the outcome of a Store.Load probe.
type LoadStatus int

const (
	// StoreDisabled means no persistent store is configured; the probe is
	// not counted in Stats.
	StoreDisabled LoadStatus = iota
	// StoreHit means out was filled with a fully verified cached result.
	StoreHit
	// StoreMiss means the store has no entry for the key.
	StoreMiss
	// StoreInvalid means an entry existed but failed verification
	// (truncated, corrupt checksum, schema or type mismatch). The engine
	// treats it as a miss and rewrites the entry after re-executing.
	StoreInvalid
)

// Store is a persistent, cross-process result cache consulted for every
// unique key before its job function runs. Load must decode the entry for
// key into out (a *T for the job's result type T) and report the outcome;
// Save persists a computed result. Implementations must be safe for
// concurrent use by multiple worker goroutines, and must only ever return
// StoreHit for fully verified entries — a corrupt or ambiguous entry is
// StoreInvalid, never a wrong value. internal/memo provides the on-disk,
// content-addressed implementation.
type Store interface {
	Load(key Key, out any) LoadStatus
	Save(key Key, v any) error
}

// nopStore is the default Store: no persistence, zero overhead.
type nopStore struct{}

func (nopStore) Load(Key, any) LoadStatus { return StoreDisabled }
func (nopStore) Save(Key, any) error      { return nil }

// Eventer is implemented by job results that can report how many simulated
// timed events their run processed (sim.Result.Events, threaded through the
// per-domain result types). The engine aggregates these for throughput
// accounting.
type Eventer interface {
	SimEvents() uint64
}

// Engine runs keyed jobs on a bounded pool of host workers with memoization.
// The zero value is not usable; call New.
type Engine struct {
	workers int
	sem     chan struct{} // worker slots
	store   Store
	inject  func(Key) error // nil: no injected failures (see SetInject)

	mu          sync.Mutex
	jobs        map[Key]*job
	quarantined []Key

	executed     uint64
	deduped      uint64
	events       uint64
	cacheHits    uint64
	cacheMisses  uint64
	cacheInvalid uint64
}

type job struct {
	done   chan struct{}
	val    any
	err    error
	events uint64
}

// New creates an engine with the given host worker bound. workers <= 0 means
// runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		store:   nopStore{},
		jobs:    make(map[Key]*job),
	}
}

// Workers reports the engine's host worker bound.
func (e *Engine) Workers() int { return e.workers }

// SetStore installs a persistent result store. Call it before the first
// submission; jobs already in flight keep the store they started with.
func (e *Engine) SetStore(s Store) {
	if s == nil {
		s = nopStore{}
	}
	e.mu.Lock()
	e.store = s
	e.mu.Unlock()
}

// Stats returns a snapshot of engine activity. It is safe to call
// concurrently with submissions, but Events only includes jobs that have
// finished.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := Stats{
		Workers: e.workers, Executed: e.executed, Deduped: e.deduped, Events: e.events,
		CacheHits: e.cacheHits, CacheMisses: e.cacheMisses, CacheInvalid: e.cacheInvalid,
		Quarantined: uint64(len(e.quarantined)),
	}
	e.mu.Unlock()
	return st
}

// Future is a handle to a submitted job's eventual result.
type Future[T any] struct {
	j *job
}

// Submit schedules fn under key unless a job with that key already ran (or
// is in flight), in which case the returned future shares its result. fn
// must be a pure function of key. Before running fn the engine consults its
// inject hook (see SetInject) and then its persistent Store (if one is set):
// a verified hit is returned without simulating anything; a miss or invalid
// entry runs fn and writes the entry back. A failed job — returned error,
// panic, or injected failure — is quarantined (see Quarantined). Submit never
// blocks on job execution; collect results with Wait.
func Submit[T any](e *Engine, key Key, fn func() (T, error)) Future[T] {
	e.mu.Lock()
	if j, ok := e.jobs[key]; ok {
		e.deduped++
		e.mu.Unlock()
		return Future[T]{j}
	}
	j := &job{done: make(chan struct{})}
	e.jobs[key] = j
	store, inject := e.store, e.inject
	e.mu.Unlock()

	go func() {
		e.sem <- struct{}{} // acquire a worker slot
		defer func() {
			if p := recover(); p != nil {
				j.err = panicError(key, p)
			}
			e.settle(key, j)
		}()
		j.val, j.err = runJob(e, key, store, inject, j, fn)
	}()
	return Future[T]{j}
}

// runJob is one job end to end: injected failure, store probe, execution,
// write-back. The inject hook runs before the store probe, so a poisoned
// cell fails even when the store holds a verified entry for it.
func runJob[T any](e *Engine, key Key, store Store, inject func(Key) error, j *job, fn func() (T, error)) (any, error) {
	if inject != nil {
		if err := inject(key); err != nil {
			return nil, err
		}
	}
	var cached T
	switch store.Load(key, &cached) {
	case StoreHit:
		e.mu.Lock()
		e.cacheHits++
		e.mu.Unlock()
		return cached, nil
	case StoreMiss:
		e.mu.Lock()
		e.cacheMisses++
		e.mu.Unlock()
	case StoreInvalid:
		e.mu.Lock()
		e.cacheInvalid++
		e.mu.Unlock()
	}
	e.mu.Lock()
	e.executed++
	e.mu.Unlock()
	v, err := fn()
	if err == nil {
		if ev, ok := any(v).(Eventer); ok {
			j.events = ev.SimEvents()
		}
		// Best-effort persistence: a failed write (full disk, races with
		// another process) only costs a future recompute; the store counts
		// it (memo.Stats.SaveErrors) for the caller to report.
		_ = store.Save(key, v)
	}
	return v, err
}

// Wait blocks until the job finishes and returns its result. Waiting on a
// future obtained from a deduplicated submission returns the one shared
// result. A future whose job was submitted under a different result type
// returns an error rather than panicking.
func (f Future[T]) Wait() (T, error) {
	<-f.j.done
	var zero T
	if f.j.err != nil {
		return zero, f.j.err
	}
	v, ok := f.j.val.(T)
	if !ok {
		return zero, fmt.Errorf("runner: key reused with conflicting result type %T", f.j.val)
	}
	return v, nil
}

// Do is Submit followed by Wait: it runs (or reuses) the job synchronously.
func Do[T any](e *Engine, key Key, fn func() (T, error)) (T, error) {
	return Submit(e, key, fn).Wait()
}
