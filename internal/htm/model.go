package htm

// The capacity/conflict model axis: the structures that track speculative
// state, and the policy that resolves coherence conflicts, are inputs to the
// emulation rather than fixed properties of it. The default (l1bloom) is the
// 4th Generation Core design the paper measures — write set bounded by the
// L1, read set spilling into an imprecise secondary filter, requester-wins
// eager conflict detection. The alternatives reproduce other points of the
// published HTM design space: a strict limited read/write-set HTM whose
// tracking is decoupled from the cache (fixed-entry sets, capacity abort on
// overflow — the FORTH limited-set design), a victim-buffer HTM that spills
// evicted speculative writes into a small fully-associative buffer before
// dooming the transaction, and a requester-loses conflict-resolution variant
// where the thread that trips over existing speculative state is the one
// that aborts. Every model runs under the same conflict directory, so the
// differential oracle (internal/check) cross-checks all of them against the
// non-speculative engines.

import (
	"fmt"

	"tsxhpc/internal/sim"
)

const (
	// strictWriteCap and strictReadCap are the strict model's fixed set
	// sizes, in cache lines. Deliberately small and asymmetric (reads are
	// cheaper to track than buffered writes), matching the limited-set
	// designs that bound speculative state with dedicated structures rather
	// than the data cache.
	strictWriteCap = 16
	strictReadCap  = 64
	// victimWays is the victim-buffer model's spill capacity: how many
	// evicted speculatively written lines the fully-associative side buffer
	// holds before a further eviction becomes a capacity abort.
	victimWays = 8
)

// CapacityModel is the pluggable speculation-tracking design. The runtime
// resolves one from sim.Config.HTMModel at construction and routes every
// model-dependent decision through it: what happens when a line joins a
// transaction's footprint, what an L1 eviction of speculative state means,
// which side of a coherence conflict aborts, and what the commit-time
// write-set-in-structure invariant asserts. Implementations are stateless;
// per-transaction model state (the victim buffer) lives on Txn.
type CapacityModel interface {
	// Name is the model's -htmmodel spelling, also used as the probe-counter
	// namespace for non-default models.
	Name() string
	// Track is invoked when line becomes a newly tracked member of t's read
	// or write set (it never fires twice for the same line and set). A model
	// with explicit set bounds dooms t here when the footprint overflows.
	Track(t *Txn, line sim.Addr, write bool)
	// Evict handles the L1 eviction of a line carrying t's speculative
	// marks; wasWrite reports whether the line is in t's write set.
	Evict(t *Txn, line sim.Addr, wasWrite bool)
	// RequesterWins reports the conflict-resolution policy: true dooms the
	// transactions already holding a conflicting line (the default), false
	// dooms the in-flight transaction performing the access.
	RequesterWins() bool
	// CheckCommit enforces the model's write-set-in-structure invariant at
	// commit (armed by sim.Config.Invariants), panicking with a typed
	// *sim.InvariantError on a torn write set.
	CheckCommit(t *Txn)
}

// ModelNames lists the valid sim.Config.HTMModel spellings, default first.
func ModelNames() []string { return []string{"l1bloom", "strict", "victim", "reqloses"} }

// ParseModel resolves a capacity-model name; "" selects the default l1bloom
// design. Flag parsing uses it so an unknown model is a usage error instead
// of a construction-time panic.
func ParseModel(name string) (CapacityModel, error) {
	switch name {
	case "", "l1bloom":
		return l1bloomModel{}, nil
	case "strict":
		return strictModel{}, nil
	case "victim":
		return victimModel{}, nil
	case "reqloses":
		return reqLosesModel{}, nil
	}
	return nil, fmt.Errorf("htm: unknown capacity model %q (valid: l1bloom, strict, victim, reqloses)", name)
}

// l1bloomModel is the paper hardware's design and the default: the write set
// lives in the L1 (losing a written line is fatal), evicted read lines
// demote to the Bloom secondary filter, and the requester wins conflicts.
type l1bloomModel struct{}

func (l1bloomModel) Name() string               { return "l1bloom" }
func (l1bloomModel) Track(*Txn, sim.Addr, bool) {}
func (l1bloomModel) RequesterWins() bool        { return true }
func (l1bloomModel) CheckCommit(t *Txn)         { t.rt.checkCommitL1(t, nil) }
func (l1bloomModel) Evict(t *Txn, line sim.Addr, wasWrite bool) {
	if wasWrite {
		t.rt.doom(t, Capacity, false)
		return
	}
	t.rt.demoteRead(t, line)
}

// strictModel is the limited read/write-set design: fixed-entry tracking
// structures independent of the data cache. A transaction whose footprint
// exceeds either cap aborts with Capacity the moment the overflowing line
// joins the set; L1 evictions are irrelevant (the sets are not cache-backed),
// so neither associativity pressure nor eviction storms abort it, and the
// Bloom secondary filter is never engaged.
type strictModel struct{}

func (strictModel) Name() string { return "strict" }
func (strictModel) Track(t *Txn, _ sim.Addr, write bool) {
	if write {
		if len(t.writeLines) > strictWriteCap {
			t.rt.doom(t, Capacity, false)
		}
	} else if len(t.readLines) > strictReadCap {
		t.rt.doom(t, Capacity, false)
	}
}
func (strictModel) Evict(*Txn, sim.Addr, bool) {}
func (strictModel) RequesterWins() bool        { return true }
func (strictModel) CheckCommit(t *Txn) {
	t.rt.checkCommitDir(t)
	if len(t.writeLines) > strictWriteCap || len(t.readLines) > strictReadCap {
		panic(&sim.InvariantError{Point: "htm-writeset", Thread: t.ctx.ID(), Clock: t.ctx.Now(),
			Detail: fmt.Sprintf("strict model committing past its caps: %d written (cap %d), %d read (cap %d)",
				len(t.writeLines), strictWriteCap, len(t.readLines), strictReadCap)})
	}
}

// victimModel keeps the L1-tracked design but gives evicted speculative
// writes a second chance: a written line displaced from the L1 spills into a
// small fully-associative victim buffer, and only overflowing that buffer is
// a capacity abort. Read evictions behave exactly as in l1bloom. Its commit
// set is therefore a superset of the default model's on any schedule the two
// execute identically.
type victimModel struct{}

func (victimModel) Name() string               { return "victim" }
func (victimModel) Track(*Txn, sim.Addr, bool) {}
func (victimModel) RequesterWins() bool        { return true }
func (victimModel) Evict(t *Txn, line sim.Addr, wasWrite bool) {
	if !wasWrite {
		t.rt.demoteRead(t, line)
		return
	}
	for _, v := range t.victim {
		if v == line {
			// Re-evicted after a re-fetch: the spill slot is still held.
			return
		}
	}
	if len(t.victim) == victimWays {
		t.rt.doom(t, Capacity, false)
		return
	}
	t.victim = append(t.victim, line)
}
func (victimModel) CheckCommit(t *Txn) { t.rt.checkCommitL1(t, t.inVictim) }

// reqLosesModel inverts the conflict-resolution policy of the default
// design: a transactional access that trips over another transaction's
// speculative state dooms the requester, letting the established holder run
// on. Non-transactional accesses still win unconditionally — a plain store
// (a fallback-lock acquisition, most importantly) cannot be refused, which
// is what guarantees forward progress through the elision wrappers' lock
// path. Capacity behavior is the default L1+Bloom design.
//
// A losing requester's cache mutation has already landed when the policy is
// decided, so a holder's L1 write mark can be legitimately stripped by an
// invalidation whose requester then aborted; the commit invariant therefore
// checks the conflict directory (the authoritative structure) only.
type reqLosesModel struct{ l1bloomModel }

func (reqLosesModel) Name() string        { return "reqloses" }
func (reqLosesModel) RequesterWins() bool { return false }
func (reqLosesModel) CheckCommit(t *Txn)  { t.rt.checkCommitDir(t) }

// inVictim reports whether line occupies one of t's victim-buffer slots.
func (t *Txn) inVictim(line sim.Addr) bool {
	for _, v := range t.victim {
		if v == line {
			return true
		}
	}
	return false
}

// demoteRead moves an evicted transactionally read line from the precise
// conflict directory into the Bloom secondary filter (the shared read-evict
// path of the cache-backed models), with the occasional imprecision abort
// per Costs.ReadEvictAbortPerMille.
func (r *Runtime) demoteRead(t *Txn, line sim.Addr) {
	owner := t.ctx
	if pm := r.m.Costs.ReadEvictAbortPerMille; pm > 0 && owner.Rand.Int63n(1000) < int64(pm) {
		r.doom(t, Capacity, false)
		return
	}
	rw, rbit := dirReaderBit(owner.ID())
	if i := r.lines.Find(line); i >= 0 && r.lines.Vals[i][rw]&rbit != 0 {
		v := &r.lines.Vals[i]
		if v[rw] &^= rbit; v.empty() {
			r.lines.Remove(i)
		}
		// Drop the line from the cleanup list; the order of readLines is
		// never observable, so a swap-remove suffices.
		for k, l := range t.readLines {
			if l == line {
				last := len(t.readLines) - 1
				t.readLines[k] = t.readLines[last]
				t.readLines = t.readLines[:last]
				break
			}
		}
		t.bloom.add(line)
		r.ovf[owner.ID()>>6] |= 1 << uint(owner.ID()&63)
	}
}

// checkCommitDir asserts every written line is still registered in the
// conflict directory — the invariant every model shares, since the directory
// is what conflict detection consults.
func (r *Runtime) checkCommitDir(t *Txn) {
	w, bit := dirWriterBit(t.ctx.ID())
	for _, line := range t.writeLines {
		if i := r.lines.Find(line); i < 0 || r.lines.Vals[i][w]&bit == 0 {
			panic(&sim.InvariantError{Point: "htm-writeset", Thread: t.ctx.ID(), Clock: t.ctx.Now(),
				Detail: fmt.Sprintf("committing with write-set line %#x missing from the conflict directory", line)})
		}
	}
}

// checkCommitL1 is the cache-backed models' commit invariant: directory
// membership plus the L1 write mark. Losing the mark was obliged to deliver
// a capacity abort (eviction) or a conflict doom (remote write); the
// legitimate exceptions are a conflicting access currently in flight — its
// cache mutation has landed but its conflict hook (the model's defined
// conflict instant) has not run yet, and this commit wins the race — and,
// when the model provides one, an alternate structure still holding the line
// (the victim buffer).
func (r *Runtime) checkCommitL1(t *Txn, also func(sim.Addr) bool) {
	w, bit := dirWriterBit(t.ctx.ID())
	for _, line := range t.writeLines {
		if i := r.lines.Find(line); i < 0 || r.lines.Vals[i][w]&bit == 0 {
			panic(&sim.InvariantError{Point: "htm-writeset", Thread: t.ctx.ID(), Clock: t.ctx.Now(),
				Detail: fmt.Sprintf("committing with write-set line %#x missing from the conflict directory", line)})
		}
		if !r.m.TxMarked(t.ctx, line, true) && !r.m.AccessInFlight(t.ctx, line) && (also == nil || !also(line)) {
			panic(&sim.InvariantError{Point: "htm-writeset", Thread: t.ctx.ID(), Clock: t.ctx.Now(),
				Detail: fmt.Sprintf("committing with write-set line %#x no longer write-marked in L1 (torn write set)", line)})
		}
	}
}
