package check

import (
	"testing"

	"tsxhpc/internal/faults"
	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
)

// Fuzz parameters are all int64 and mapped into valid ranges here (rather
// than trusting the fuzzer), so any input is a meaningful workload and the
// committed corpus under testdata/fuzz is unambiguous to hand-write.

func pick(v, lo, hi int64) int {
	span := hi - lo + 1
	m := v % span
	if m < 0 {
		m += span
	}
	return int(lo + m)
}

// pickName maps a fuzz draw onto one of the registered axis names, so the
// existing targets cover the model/layout axes without changing their
// parameter arity (which would orphan the committed corpus).
func pickName(v int64, names []string) string {
	return names[pick(v, 0, int64(len(names)-1))]
}

// fuzzBudget bounds every fuzz-driven run so a pathological input surfaces
// as a typed stall (a finding) instead of hanging the fuzzer.
const (
	fuzzMaxCycles   = 2_000_000_000
	fuzzStallCycles = 200_000_000
)

// FuzzDifferential feeds arbitrary workload shapes to the full differential
// harness: all four engines must agree — serializable histories, predicted
// final state on commutative shapes — with and without fault injection.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), int64(4), int64(64), int64(6), int64(4), int64(0), int64(0))
	f.Add(int64(2), int64(8), int64(16), int64(8), int64(6), int64(40), int64(0))
	f.Add(int64(3), int64(2), int64(256), int64(4), int64(8), int64(100), int64(1))
	f.Add(int64(4), int64(7), int64(8), int64(12), int64(3), int64(25), int64(1))
	f.Add(int64(5), int64(8), int64(1), int64(5), int64(2), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, seed, threads, slots, txs, ops, storePct, chaos int64) {
		g := GenConfig{
			Threads:     pick(threads, 1, 8),
			Slots:       pick(slots, 1, 512),
			Stride:      8,
			TxPerThread: pick(txs, 1, 12),
			OpsPerTx:    pick(ops, 1, 10),
			HotPct:      pick(seed, 0, 100),
			StorePct:    pick(storePct, 0, 100),
		}
		if slots%2 == 0 {
			g.Stride = 64
		}
		w := Generate(seed, g)
		o := Opts{
			MaxCycles:   fuzzMaxCycles,
			StallCycles: fuzzStallCycles,
			// Seed-derived axis picks: every shape also exercises one of the
			// HTM capacity models and one allocator placement, so the oracle
			// covers the full model x layout grid as the corpus grows.
			Model:  pickName(seed^txs, htm.ModelNames()),
			Layout: pickName(seed^ops, sim.LayoutNames()),
		}
		if chaos%2 != 0 {
			o.Faults = faults.Chaos(seed)
		}
		rep := Differential(w, AllEngines, o)
		for _, v := range rep.Violations {
			t.Errorf("seed %d shape %+v model %s layout %s: %s", seed, g, o.Model, o.Layout, v)
		}
	})
}

// FuzzHTMAbortPaths stresses the TSX engine specifically with shapes chosen
// to exercise the abort machinery — transactions larger than the L1's
// per-set capacity (capacity aborts, Bloom read-set demotion), heavy
// contention (conflict aborts, fallback), and optional spurious-abort
// injection — then checks the committed history is still serializable and
// the speculation counters stay coherent.
func FuzzHTMAbortPaths(f *testing.F) {
	f.Add(int64(1), int64(4), int64(512), int64(32), int64(0))
	f.Add(int64(2), int64(8), int64(64), int64(56), int64(1))
	f.Add(int64(3), int64(8), int64(1024), int64(8), int64(0))
	f.Add(int64(4), int64(2), int64(256), int64(64), int64(1))
	f.Fuzz(func(t *testing.T, seed, threads, lines, ops, spurious int64) {
		g := GenConfig{
			Threads: pick(threads, 1, 8),
			// Line-granular slots up to twice the 512-line L1: big write sets
			// must abort by capacity, never commit torn.
			Slots:       pick(lines, 64, 1024),
			Stride:      64,
			TxPerThread: pick(seed, 2, 6),
			OpsPerTx:    pick(ops, 8, 64),
			HotPct:      30,
			StorePct:    50,
		}
		w := Generate(seed, g)
		o := Opts{
			MaxCycles:   fuzzMaxCycles,
			StallCycles: fuzzStallCycles,
			// The abort machinery differs per capacity model (strict caps,
			// victim-buffer spill, requester-loses dooming) — draw both axes
			// so each shape stresses one combination's abort paths.
			Model:  pickName(seed^lines, htm.ModelNames()),
			Layout: pickName(seed^ops, sim.LayoutNames()),
		}
		if spurious%2 != 0 {
			o.Faults = faults.Chaos(seed)
		}
		res, err := RunEngine(w, TSX, o)
		if err != nil {
			t.Fatalf("seed %d shape %+v model %s layout %s: %v", seed, g, o.Model, o.Layout, err)
		}
		if err := CheckHistory(w, res.Hist, res.Final); err != nil {
			t.Fatalf("seed %d shape %+v model %s layout %s: %v", seed, g, o.Model, o.Layout, err)
		}
		hw := uint64(w.TotalTxns()) - res.Fallbacks
		if res.Starts != hw+res.Aborts {
			t.Fatalf("stats incoherent: starts %d != hardware commits %d + aborts %d", res.Starts, hw, res.Aborts)
		}
	})
}

// FuzzDifferentialLayout is the model x layout grid's own fuzz target: the
// capacity model and allocator placement are explicit fuzz parameters (not
// seed-derived), so the fuzzer can hold a workload shape fixed and move only
// along the new axes — the committed corpus entries under
// testdata/fuzz/FuzzDifferentialLayout name the model-specific differences
// they pin down (see TestCorpusModelDivergence for the quantified versions).
func FuzzDifferentialLayout(f *testing.F) {
	// One seed per model on distinct layouts, plus a chaos draw.
	f.Add(int64(1), int64(4), int64(32), int64(6), int64(4), int64(50), int64(0), int64(0), int64(0))
	f.Add(int64(2), int64(8), int64(16), int64(8), int64(8), int64(60), int64(0), int64(1), int64(2))
	f.Add(int64(3), int64(6), int64(64), int64(6), int64(10), int64(80), int64(1), int64(2), int64(2))
	f.Add(int64(4), int64(2), int64(128), int64(4), int64(6), int64(30), int64(0), int64(3), int64(1))
	f.Add(int64(5), int64(8), int64(8), int64(10), int64(5), int64(100), int64(1), int64(3), int64(0))
	f.Fuzz(func(t *testing.T, seed, threads, slots, txs, ops, storePct, chaos, modelPick, layoutPick int64) {
		g := GenConfig{
			Threads: pick(threads, 1, 8),
			Slots:   pick(slots, 1, 256),
			// Line-granular so placement and per-line capacity tracking both
			// see every slot as a distinct cache line.
			Stride:      64,
			TxPerThread: pick(txs, 1, 10),
			// Up to 24 ops: past the strict model's 16-entry write cap, so
			// capacity aborts on that model are reachable, not just possible.
			OpsPerTx: pick(ops, 1, 24),
			HotPct:   pick(seed, 0, 100),
			StorePct: pick(storePct, 0, 100),
		}
		w := Generate(seed, g)
		o := Opts{
			MaxCycles:   fuzzMaxCycles,
			StallCycles: fuzzStallCycles,
			Model:       pickName(modelPick, htm.ModelNames()),
			Layout:      pickName(layoutPick, sim.LayoutNames()),
		}
		if chaos%2 != 0 {
			o.Faults = faults.Chaos(seed)
		}
		rep := Differential(w, AllEngines, o)
		for _, v := range rep.Violations {
			t.Errorf("seed %d shape %+v model %s layout %s: %s", seed, g, o.Model, o.Layout, v)
		}
	})
}

// FuzzDifferentialTopology runs the cross-engine agreement check on
// arbitrary machine topologies, not just the paper box: sockets x cores x
// HyperThreads drawn up to the 64-core limit, with the workload's thread
// count drawn up to whatever the machine carries. This is where the NUMA
// cost model, the 64-bit presence directory, and the widened HTM conflict
// masks face the oracle — a remote-transfer cost taken on one engine but
// not another, or a conflict missed past thread 16, shows up as a
// divergence or a serializability violation.
func FuzzDifferentialTopology(f *testing.F) {
	f.Add(int64(1), int64(12), int64(64), int64(5), int64(4), int64(0), int64(0), int64(2), int64(8), int64(2))
	f.Add(int64(2), int64(32), int64(16), int64(4), int64(3), int64(40), int64(1), int64(4), int64(8), int64(2))
	f.Add(int64(3), int64(64), int64(256), int64(3), int64(4), int64(90), int64(0), int64(8), int64(8), int64(1))
	f.Add(int64(4), int64(17), int64(8), int64(4), int64(5), int64(50), int64(1), int64(1), int64(8), int64(4))
	f.Fuzz(func(t *testing.T, seed, threads, slots, txs, ops, storePct, chaos, sockets, cores, tpc int64) {
		o := Opts{
			MaxCycles:      fuzzMaxCycles,
			StallCycles:    fuzzStallCycles,
			Sockets:        pick(sockets, 1, 8),
			Cores:          pick(cores, 1, 8),
			ThreadsPerCore: pick(tpc, 1, 4),
		}
		if chaos%2 != 0 {
			o.Faults = faults.Chaos(seed)
		}
		maxThreads := o.Sockets * o.Cores * o.ThreadsPerCore
		if maxThreads > 64 {
			maxThreads = 64 // Generate's ceiling; larger draws would error, not check
		}
		g := GenConfig{
			Threads:     pick(threads, 1, int64(maxThreads)),
			Slots:       pick(slots, 1, 512),
			Stride:      8,
			TxPerThread: pick(txs, 1, 8),
			OpsPerTx:    pick(ops, 1, 8),
			HotPct:      pick(seed, 0, 100),
			StorePct:    pick(storePct, 0, 100),
		}
		if slots%2 == 0 {
			g.Stride = 64
		}
		w := Generate(seed, g)
		rep := Differential(w, AllEngines, o)
		for _, v := range rep.Violations {
			t.Errorf("seed %d topo %dx%dx%d shape %+v: %s",
				seed, o.Sockets, o.Cores, o.ThreadsPerCore, g, v)
		}
	})
}
