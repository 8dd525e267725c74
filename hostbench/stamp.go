package main

import (
	"fmt"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/tm"
)

// stampCell is one STAMP (workload, mode, threads) execution.
type stampCell struct {
	name    string
	mode    tm.Mode
	threads int
}

func (c stampCell) String() string { return fmt.Sprintf("%s/%s/%dT", c.name, c.mode, c.threads) }

// stampThreads lowers the thread count of the cells that take more than
// ~150 ms of host time at 8 threads, so every op stays short (see README):
// bayes under tl2 takes 0.3-0.5 s at 8T, yada under tsx ~150 ms. A count of
// 0 drops the cell: bayes under tsx, 0.35-0.5 s at 8T. That leaves 23 cells,
// an odd count, so the median op of whole passes is the median of one cell's
// runs; with 24 it was the midpoint between the slowest run of one cell and
// the fastest of the next, and spread by 9% of its median over ten seeds.
var stampThreads = map[string]int{"bayes/tl2": 2, "bayes/tsx": 0, "yada/tsx": 4}

// stampCells is the paper's Figure 2 / Table 1 grid at 8 threads: the eight
// STAMP workloads under sgl, tl2 and tsx.
func stampCells() []stampCell {
	var cells []stampCell
	for _, name := range stamp.Names() {
		for _, mode := range []tm.Mode{tm.SGL, tm.TL2, tm.TSX} {
			th := 8
			if t, ok := stampThreads[name+"/"+mode.String()]; ok {
				th = t
			}
			if th == 0 {
				continue
			}
			cells = append(cells, stampCell{name, mode, th})
		}
	}
	return cells
}

// stampRepeat is the designated cell run a second time after the timed
// window: a contended tsx cell, where a nondeterministic engine would show.
var stampRepeat = stampCell{"kmeans", tm.TSX, 8}

// stampResult is what one cell reports: the simulated statistics the digest
// and the per-layer counts use. Exported fields so it memoizes through the
// runner and the memo store like any experiment cell.
type stampResult struct {
	Cycles, Events                   uint64
	HTMStarts, HTMCommits, Fallbacks uint64
	CapacityAborts, ConflictAborts   uint64
	TotalAborts                      uint64
	STMStarts, STMCommits, STMAborts uint64
	L1Hits, L1Misses                 uint64
	Invalidations, RemoteTransfers   uint64
}

// SimEvents reports the simulated event count (runner.Eventer).
func (r stampResult) SimEvents() uint64 { return r.Events }

func (r stampResult) counts() simCounts {
	return simCounts{
		events: r.Events, cycles: r.Cycles,
		l1Hits: r.L1Hits, l1Misses: r.L1Misses, invalidations: r.Invalidations, remoteTransfers: r.RemoteTransfers,
		htmStarts: r.HTMStarts, htmCommits: r.HTMCommits, capacity: r.CapacityAborts, conflict: r.ConflictAborts,
		fallbacks: r.Fallbacks, stmStarts: r.STMStarts, stmCommits: r.STMCommits,
	}
}

// digestWords are the values sim_digest hashes for the cell.
func (r stampResult) digestWords() []uint64 {
	return []uint64{r.Cycles, r.Events, r.TotalAborts, r.CapacityAborts, r.ConflictAborts, r.Fallbacks, r.STMAborts}
}

// runStampCell builds and runs one cell layer by layer, each call under its
// own span: sim.NewE, tm.NewSystem, the workload's Setup, Machine.Run and
// Validate.
func runStampCell(tr *tracer, parent int32, c stampCell, seed int64) (stampResult, error) {
	ctor, ok := stamp.Registry[c.name]
	if !ok {
		return stampResult{}, fmt.Errorf("unknown STAMP workload %q", c.name)
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	id := tr.begin("sim.NewE", "", parent)
	m, err := sim.NewE(cfg)
	tr.end(id)
	if err != nil {
		return stampResult{}, err
	}
	id = tr.begin("tm.NewSystem", "", parent)
	sys := tm.NewSystem(m, c.mode)
	tr.end(id)
	w := ctor()
	id = tr.begin("stamp.Setup", "", parent)
	w.Setup(m, sys, c.threads)
	tr.end(id)
	sys.ResetStats()
	cs0 := m.CacheStats()
	id = tr.begin("sim.Run", "", parent)
	res := m.Run(c.threads, func(ctx *sim.Context) { w.Thread(ctx, sys) })
	tr.end(id)
	id = tr.begin("stamp.Validate", "", parent)
	err = w.Validate(m)
	tr.end(id)
	if err != nil {
		return stampResult{}, fmt.Errorf("%s: validate: %w", c, err)
	}
	cs := m.CacheStats()
	r := stampResult{
		Cycles: res.Cycles, Events: res.Events,
		L1Hits: cs.Hits - cs0.Hits, L1Misses: cs.Misses - cs0.Misses,
		Invalidations:   cs.Invalidations - cs0.Invalidations,
		RemoteTransfers: cs.RemoteTransfers - cs0.RemoteTransfers,
	}
	if h := sys.HTM; h != nil {
		r.HTMStarts, r.HTMCommits, r.Fallbacks = h.Stats.Starts, h.Stats.Commits, h.Stats.Fallback
		r.CapacityAborts, r.ConflictAborts = h.Stats.Aborts[htm.Capacity], h.Stats.Aborts[htm.Conflict]
		r.TotalAborts = h.Stats.TotalAborts()
	}
	if s := sys.STM; s != nil {
		r.STMStarts, r.STMCommits, r.STMAborts = s.Stats.Starts, s.Stats.Commits, s.Stats.Aborts
		r.TotalAborts = s.Stats.Aborts
	}
	return r, nil
}

// runStamp submits one cell through the suite's runner under a key no other
// op uses, so it always simulates and its result is written to the memo
// store.
func (b *bench) runStamp(parent int32, c stampCell, seed int64, key string) (outcome, stampResult, error) {
	return doCell(b, parent, key, func(do int32) (stampResult, error) {
		return runStampCell(b.tr, do, c, seed)
	})
}

// doCell runs fn as one runner job under key, inside a runner.Do span, and
// reports what the engine did for it.
func doCell[T runner.Eventer](b *bench, parent int32, key string, fn func(do int32) (T, error)) (outcome, T, error) {
	st0 := b.suite.E.Stats()
	do := b.tr.begin("runner.Do", "", parent)
	b.tr.setScope(do)
	r, err := runner.Do(b.suite.E, runner.Key(key), func() (T, error) { return fn(do) })
	b.tr.end(do)
	st1 := b.suite.E.Stats()
	out := outcome{executed: st1.Executed - st0.Executed, hits: st1.CacheHits - st0.CacheHits}
	if err == nil && out.executed != 1 {
		err = fmt.Errorf("%s: runner simulated %d jobs and served %d from the store, want one simulated", key, out.executed, out.hits)
	}
	if err == nil {
		out.events = r.SimEvents()
	}
	return out, r, err
}

var stamp8t = &workload{
	why: "STAMP x {sgl,tl2,tsx} at 8 threads on the paper machine: L1, HTM/TL2 tracking and futex handoffs among <=8 contexts",
	setup: func(b *bench) error {
		if err := b.openSuite(); err != nil {
			return err
		}
		c := stampCells()[0]
		_, _, err := b.runStamp(0, c, b.cellSeed(-1), "hostbench/warmup/"+c.String())
		return err
	},
	pass: func(b *bench, k int) []op {
		seed := b.cellSeed(k)
		var ops []op
		for _, c := range stampCells() {
			c, key := c, fmt.Sprintf("hostbench/stamp/%s/seed%d", c, seed)
			ops = append(ops, op{name: c.String(), run: func(parent int32) (outcome, error) {
				out, r, err := b.runStamp(parent, c, seed, key)
				if err == nil && k == 0 {
					b.record(r.counts(), r.digestWords())
					if c == stampRepeat {
						b.firstRun = r
					}
				}
				return out, err
			}})
		}
		return ops
	},
	check: func(b *bench) error {
		seed := b.cellSeed(0)
		_, r, err := b.runStamp(0, stampRepeat, seed, fmt.Sprintf("hostbench/repeat/%s/seed%d", stampRepeat, seed))
		if err != nil {
			return err
		}
		if first, ok := b.firstRun.(stampResult); !ok || first != r {
			return fmt.Errorf("%s: second run differs from the first: %+v vs %+v", stampRepeat, b.firstRun, r)
		}
		return nil
	},
}
