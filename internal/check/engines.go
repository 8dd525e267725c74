package check

import (
	"fmt"
	"sort"
	"strings"

	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// Engine selects which synchronization engine executes a workload.
type Engine int

const (
	// TSX elides a single global lock with the emulated Intel TSX hardware
	// (tm.TSX: retry budget, lock-busy wait, explicit fallback).
	TSX Engine = iota
	// TL2 runs every transaction under the TL2 software TM (tm.TL2).
	TL2
	// Coarse serializes all transactions on one global mutex (tm.SGL).
	Coarse
	// Fine uses per-slot two-phase locking: each transaction sorts its slot
	// set, locks ascending, applies its operations with plain accesses, and
	// unlocks after its commit point — classic conservative 2PL over
	// ssync.Mutex.
	Fine
	// Unsynced applies operations with no synchronization at all (tm.Raw on
	// many threads). It exists only to prove the oracle has teeth: its races
	// must be caught. Never part of AllEngines.
	Unsynced
)

// AllEngines is the default differential set — every engine that must agree.
var AllEngines = []Engine{TSX, TL2, Coarse, Fine}

func (e Engine) String() string {
	switch e {
	case TSX:
		return "tsx"
	case TL2:
		return "tl2"
	case Coarse:
		return "coarse"
	case Fine:
		return "fine"
	case Unsynced:
		return "unsynced"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngines parses a comma-separated engine list ("tsx,tl2,coarse,fine").
func ParseEngines(s string) ([]Engine, error) {
	var out []Engine
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "tsx":
			out = append(out, TSX)
		case "tl2":
			out = append(out, TL2)
		case "coarse":
			out = append(out, Coarse)
		case "fine":
			out = append(out, Fine)
		case "":
		default:
			return nil, fmt.Errorf("unknown engine %q (valid: tsx, tl2, coarse, fine)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no engines selected (valid: tsx, tl2, coarse, fine)")
	}
	return out, nil
}

// Opts bounds and perturbs an engine run.
type Opts struct {
	// Faults, when non-nil, attaches deterministic fault injection to every
	// engine's machine, so cross-engine agreement is also enforced under
	// chaos. Plans are stateless recipes (faults.Config): the same value may
	// be attached to many machines.
	Faults sim.FaultPlan
	// MaxCycles is a per-run virtual-cycle budget (0: unlimited).
	MaxCycles uint64
	// StallCycles arms the livelock watchdog (0: off).
	StallCycles uint64
	// Sockets, Cores, ThreadsPerCore select the machine topology every
	// engine runs on; zero fields take the paper machine's values (1
	// socket x 4 cores x 2 HyperThreads). Multi-socket topologies route
	// cross-socket sharing through the NUMA cost model, so the
	// differential sweep also cross-checks the engines where remote
	// transfers, directory hops, and wider conflict masks are in play.
	Sockets, Cores, ThreadsPerCore int
	// Model selects the HTM capacity/conflict model (sim.Config.HTMModel)
	// for the TSX engine's machine; "" is the default l1bloom design. The
	// agreement obligations are model-independent — that is the point of
	// sweeping the axis through the oracle.
	Model string
	// Layout selects the allocator-placement policy (sim.Config.Layout) on
	// every engine's machine. Non-default layouts switch the slot array from
	// one dense allocation to per-slot allocations so the policy actually
	// redistributes the workload's lines across cache sets.
	Layout string
}

// EngineResult is one engine's execution of a workload.
type EngineResult struct {
	Engine Engine
	// Final is the shared array's end state.
	Final []uint64
	// Hist is the committed-transaction history in some order; Seq stamps
	// give the serialization order.
	Hist []TxnRec
	// Cycles is the simulated makespan.
	Cycles uint64
	// Starts/Aborts/Fallbacks count speculative activity: hardware
	// transaction starts and aborts plus fallback-lock acquisitions for TSX,
	// TL2 attempt starts and aborts for TL2, zero for lock engines.
	Starts, Aborts, Fallbacks uint64
}

// recorder captures per-transaction read/write values during execution and
// stamps commit order from the engines' commit hooks. The simulator runs
// exactly one simulated thread at a time, so no locking is needed; bodies
// are re-executable closures, so begin resets the per-thread scratch record
// on every (re)attempt and only commit copies it into the history.
//
// For lock engines and HTM the commit hook fires at the serialization point
// itself, so commit assigns stamps from a counter. TL2 is different: its
// serial order is write-version order, and the wv acquisition is separated
// from the commit hook by the read-set validation charge, a Compute with
// scheduling points, so two commits can hook in the opposite order of their
// versions. There the
// engine's SerializeHook deposits the wv via stamp() — tentatively, since
// validation can still abort the attempt — and commit archives whatever
// stamp the committing attempt deposited last.
type recorder struct {
	seq     uint64
	stamped bool // Seq comes from stamp(), not the counter
	cur     []TxnRec
	hist    []TxnRec
}

func newRecorder(threads, total int) *recorder {
	return &recorder{cur: make([]TxnRec, threads), hist: make([]TxnRec, 0, total)}
}

func (r *recorder) begin(tid, idx int) {
	r.cur[tid].Thread = tid
	r.cur[tid].Index = idx
	r.cur[tid].Ops = r.cur[tid].Ops[:0]
}

func (r *recorder) read(tid, slot int, v uint64) {
	r.cur[tid].Ops = append(r.cur[tid].Ops, RecOp{Write: false, Slot: slot, Val: v})
}

func (r *recorder) write(tid, slot int, v uint64) {
	r.cur[tid].Ops = append(r.cur[tid].Ops, RecOp{Write: true, Slot: slot, Val: v})
}

// stamp records a tentative serialization stamp for tid's current attempt
// (TL2's SerializeHook); it only takes effect if that attempt commits.
func (r *recorder) stamp(tid int, seq uint64) {
	r.cur[tid].Seq = seq
}

// commit is the hook installed via tm.SetCommitHook (and called directly by
// the Fine engine at its commit point): stamp the serialization order and
// archive the record.
func (r *recorder) commit(c *sim.Context) {
	rec := r.cur[c.ID()]
	if !r.stamped {
		rec.Seq = r.seq
		r.seq++
	}
	rec.Ops = append([]RecOp(nil), rec.Ops...)
	r.hist = append(r.hist, rec)
}

// RunEngine executes w under engine e on a private simulated machine with
// the model's self-checks armed, returning the recorded history and final
// state. Machine-level failures (stalls, invariant violations) are returned
// as errors, not panics.
func RunEngine(w *Workload, e Engine, o Opts) (*EngineResult, error) {
	cfg := sim.Config{
		Sockets:        o.Sockets,
		Cores:          o.Cores,
		ThreadsPerCore: o.ThreadsPerCore,
		Costs:          sim.DefaultCosts(),
		Seed:           w.Seed,
		Invariants:     true,
		Faults:         o.Faults,
		MaxCycles:      o.MaxCycles,
		StallCycles:    o.StallCycles,
		HTMModel:       o.Model,
		Layout:         o.Layout,
	}
	m, err := sim.NewE(cfg)
	if err != nil {
		return nil, err
	}
	if w.Threads > m.MaxThreads() {
		return nil, fmt.Errorf("%s: workload wants %d threads, machine has %d", e, w.Threads, m.MaxThreads())
	}
	slotAddr := slotAllocator(m, w, o.Layout)
	rec := newRecorder(w.Threads, w.TotalTxns())

	var body func(c *sim.Context)
	var sys *tm.System
	switch e {
	case TSX, TL2, Coarse, Unsynced:
		mode := map[Engine]tm.Mode{TSX: tm.TSX, TL2: tm.TL2, Coarse: tm.SGL, Unsynced: tm.Raw}[e]
		sys = tm.NewSystem(m, mode)
		sys.SetCommitHook(rec.commit)
		if e == TL2 {
			// TL2's serial order is wv order, not hook order (see recorder).
			rec.stamped = true
			sys.STM.SerializeHook = func(c *sim.Context, wv uint64) { rec.stamp(c.ID(), wv) }
		}
		body = func(c *sim.Context) {
			tid := c.ID()
			for k := range w.Txns[tid] {
				txn := &w.Txns[tid][k]
				if txn.Think > 0 {
					c.Compute(txn.Think)
				}
				sys.Atomic(c, func(tx tm.Tx) {
					rec.begin(tid, k)
					applyOps(tx, txn.Ops, rec, tid, slotAddr)
				})
			}
		}
	case Fine:
		// Lock words deliberately share lines (8 per line): correctness must
		// not depend on lock-array layout.
		lockBase := m.Mem.AllocArray(w.Slots, 8)
		mus := make([]*ssync.Mutex, w.Slots)
		for i := range mus {
			mus[i] = ssync.NewMutexAt(lockBase + sim.Addr(i*8))
		}
		lockSets := fineLockSets(w)
		body = func(c *sim.Context) {
			tid := c.ID()
			for k := range w.Txns[tid] {
				txn := &w.Txns[tid][k]
				if txn.Think > 0 {
					c.Compute(txn.Think)
				}
				slots := lockSets[tid][k]
				for _, s := range slots {
					mus[s].Lock(c)
				}
				rec.begin(tid, k)
				applyOps(tm.PlainTx(c), txn.Ops, rec, tid, slotAddr)
				// Commit point: every touched slot is still locked, so the
				// transaction's place in the serial order is fixed here.
				rec.commit(c)
				for i := len(slots) - 1; i >= 0; i-- {
					mus[slots[i]].Unlock(c)
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown engine %d", int(e))
	}

	simRes, err := runContained(m, w.Threads, body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e, err)
	}
	if err := m.VerifyCaches(); err != nil {
		return nil, fmt.Errorf("%s: end-of-run cache audit: %w", e, err)
	}

	res := &EngineResult{
		Engine: e,
		Cycles: simRes.Cycles,
		Hist:   rec.hist,
		Final:  make([]uint64, w.Slots),
	}
	for s := 0; s < w.Slots; s++ {
		res.Final[s] = m.Mem.ReadRaw(slotAddr(s))
	}
	if sys != nil {
		switch {
		case sys.HTM != nil:
			res.Starts = sys.HTM.Stats.Starts
			res.Aborts = sys.HTM.Stats.TotalAborts()
			res.Fallbacks = sys.HTM.Stats.Fallback
		case sys.STM != nil:
			res.Starts = sys.STM.Stats.Starts
			res.Aborts = sys.STM.Stats.Aborts
		}
	}
	return res, nil
}

// slotAllocator places the workload's slot array. Under the default packed
// layout it is one dense allocation (the historical shape, kept bit-for-bit);
// under randomized/colliding layouts each slot is allocated separately so the
// placement policy decides where every slot's line lands — that is what turns
// allocator layout into a cache-set-distribution experiment. Addresses depend
// only on (machine config, workload shape), so every engine sees the same
// layout and the differential comparison stays apples-to-apples.
func slotAllocator(m *sim.Machine, w *Workload, layout string) func(int) sim.Addr {
	if layout == "" || layout == "packed" {
		base := m.Mem.AllocArray(w.Slots, w.Stride)
		return func(s int) sim.Addr { return base + sim.Addr(s*w.Stride) }
	}
	addrs := make([]sim.Addr, w.Slots)
	for s := range addrs {
		addrs[s] = m.Mem.Alloc(w.Stride)
	}
	return func(s int) sim.Addr { return addrs[s] }
}

// applyOps executes one transaction's operations through tx, recording the
// observed and produced values.
func applyOps(tx tm.Tx, ops []Op, rec *recorder, tid int, slotAddr func(int) sim.Addr) {
	for _, op := range ops {
		a := slotAddr(op.Slot)
		switch op.Kind {
		case OpRead:
			rec.read(tid, op.Slot, tx.Load(a))
		case OpAdd:
			v := tx.Load(a)
			rec.read(tid, op.Slot, v)
			tx.Store(a, v+op.Arg)
			rec.write(tid, op.Slot, v+op.Arg)
		case OpStore:
			tx.Store(a, op.Arg)
			rec.write(tid, op.Slot, op.Arg)
		}
	}
}

// fineLockSets precomputes each transaction's sorted, deduplicated slot set —
// the canonical acquisition order that makes 2PL deadlock-free.
func fineLockSets(w *Workload) [][][]int {
	sets := make([][][]int, w.Threads)
	for t := range w.Txns {
		sets[t] = make([][]int, len(w.Txns[t]))
		for k, txn := range w.Txns[t] {
			slots := make([]int, 0, len(txn.Ops))
			for _, op := range txn.Ops {
				slots = append(slots, op.Slot)
			}
			sort.Ints(slots)
			uniq := slots[:0]
			for i, s := range slots {
				if i == 0 || s != slots[i-1] {
					uniq = append(uniq, s)
				}
			}
			sets[t][k] = uniq
		}
	}
	return sets
}

// runContained converts machine-level panics the harness expects — typed
// invariant violations — into errors; RunE already does the same for stalls.
// Anything else is a genuine bug and keeps panicking.
func runContained(m *sim.Machine, n int, body func(*sim.Context)) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ie, ok := p.(*sim.InvariantError); ok {
				err = ie
				return
			}
			panic(p)
		}
	}()
	return m.RunE(n, body)
}
