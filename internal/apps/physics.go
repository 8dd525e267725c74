package apps

import (
	"fmt"
	"math/rand"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// physics is the physicsSolver workload of Table 2 (PThread, locks; lockset
// elision + static coarsening): a projected-SOR solver that iteratively
// resolves 3-D force constraints between pairs of objects. The key critical
// section updates the total force on both objects of a pair; the original
// acquires one lock per object:
//
//	baseline    — acquire the pair's two mutexes (sorted), update, release
//	tsx.init    — lockset elision: a single transactional begin replaces
//	              the set of two lock acquisitions (Section 5.2.1)
//	tsx.coarsen — identical to tsx.init (Table 2 marks lockset elision as
//	              physicsSolver's technique; no coarsening)
//	barrier     — conflict-free comparator (Figure 5b): constraints are
//	              pre-arranged into rounds where no object repeats, with a
//	              barrier between rounds; the input scene has a few objects
//	              with many constraints, so late rounds run nearly empty
//	              (the load imbalance of Section 5.4.2). Group formation is
//	              untimed, as in the paper ("we omit the time for forming
//	              the groups ... those groups are used repeatedly").
//	tsx.granN   — granularity sweep for Figure 5b (N constraints batched)
type physics struct {
	objects     int
	constraints int
	hotPct      int // share of constraints touching the hot object
	iters       int
}

func newPhysics() *physics {
	return &physics{objects: 512, constraints: 2600, hotPct: 5, iters: 2}
}

func (w *physics) Name() string { return "physicsSolver" }

func (w *physics) Variants() []string {
	return []string{"baseline", "tsx.init", "tsx.coarsen", "barrier",
		"tsx.gran1", "tsx.gran2", "tsx.gran3"}
}

type constraintPair struct {
	a, b int
	d    uint64
}

func (w *physics) Run(variant string, threads int) (Result, error) {
	m := sim.New(sim.DefaultConfig())
	rng := rand.New(rand.NewSource(139))
	pairs := make([]constraintPair, w.constraints)
	expected := make([]int64, w.objects)
	for i := range pairs {
		var a int
		if rng.Intn(100) < w.hotPct {
			a = 0 // the hot object
		} else {
			a = rng.Intn(w.objects)
		}
		b := (a + 1 + rng.Intn(w.objects-1)) % w.objects
		d := uint64(1 + rng.Intn(20))
		pairs[i] = constraintPair{a, b, d}
		expected[a] += int64(d) * int64(w.iters)
		expected[b] -= int64(d) * int64(w.iters)
	}
	force := m.Mem.AllocArray(w.objects, sim.LineSize)
	forceAddr := func(o int) sim.Addr { return force + sim.Addr(o*sim.LineSize) }
	locks := make([]*ssync.Mutex, w.objects)
	for i := range locks {
		locks[i] = ssync.NewMutex(m.Mem)
	}

	const constraintWork = 130 // penetration-depth and impulse computation

	apply := func(c *sim.Context, tx tm.Tx, p constraintPair) {
		a := forceAddr(p.a)
		b := forceAddr(p.b)
		tx.Store(a, uint64(int64(tx.Load(a))+int64(p.d)))
		tx.Store(b, uint64(int64(tx.Load(b))-int64(p.d)))
	}

	gran := 0
	if g, ok := granOf(variant); ok {
		gran = g
	} else if variant == "tsx.init" || variant == "tsx.coarsen" {
		// Table 2 applies lockset elision (no coarsening) to physicsSolver,
		// so the Figure 4 tsx.coarsen bar equals tsx.init; the Figure 5b
		// granularity sweep uses the explicit tsx.granN variants.
		gran = 1
	}

	var res sim.Result
	rate := 0.0
	switch {
	case variant == "baseline":
		res = m.Run(threads, func(c *sim.Context) {
			for it := 0; it < w.iters; it++ {
				for i := c.ID(); i < len(pairs); i += threads {
					p := pairs[i]
					c.Compute(constraintWork)
					lo, hi := p.a, p.b
					if lo > hi {
						lo, hi = hi, lo
					}
					locks[lo].Lock(c)
					locks[hi].Lock(c)
					apply(c, tm.PlainTx(c), p)
					locks[hi].Unlock(c)
					locks[lo].Unlock(c)
				}
			}
		})

	case gran > 0:
		rt := htm.New(m)
		el := tm.NewElider(rt, m, "lockset")
		res = m.Run(threads, func(c *sim.Context) {
			for it := 0; it < w.iters; it++ {
				var mine []constraintPair
				for i := c.ID(); i < len(pairs); i += threads {
					mine = append(mine, pairs[i])
				}
				for lo := 0; lo < len(mine); lo += gran {
					hi := lo + gran
					if hi > len(mine) {
						hi = len(mine)
					}
					batch := mine[lo:hi]
					for range batch {
						c.Compute(constraintWork)
					}
					// Lockset elision: one transactional begin replaces all
					// the batch's lock acquisitions.
					set := make([]*ssync.Mutex, 0, 2*len(batch))
					for _, p := range batch {
						set = append(set, locks[p.a], locks[p.b])
					}
					el.ElideSet(c, set, func(tx tm.Tx) {
						for _, p := range batch {
							apply(c, tx, p)
						}
					})
				}
			}
		})
		rate = rt.Stats.AbortRate()

	case variant == "barrier":
		// Pre-arranged conflict-free rounds: within a round no object
		// appears twice, so updates need no synchronization.
		var rounds [][]constraintPair
		for _, p := range pairs {
			placed := false
			for r := range rounds {
				used := false
				for _, q := range rounds[r] {
					if q.a == p.a || q.a == p.b || q.b == p.a || q.b == p.b {
						used = true
						break
					}
				}
				if !used {
					rounds[r] = append(rounds[r], p)
					placed = true
					break
				}
			}
			if !placed {
				rounds = append(rounds, []constraintPair{p})
			}
		}
		bar := ssync.NewBarrier(m.Mem, threads)
		res = m.Run(threads, func(c *sim.Context) {
			for it := 0; it < w.iters; it++ {
				for _, round := range rounds {
					for i := c.ID(); i < len(round); i += threads {
						p := round[i]
						c.Compute(constraintWork)
						apply(c, tm.PlainTx(c), p)
					}
					bar.Arrive(c)
				}
			}
		})

	default:
		return Result{}, fmt.Errorf("physicsSolver: unhandled variant %q", variant)
	}

	for o := 0; o < w.objects; o++ {
		if got := int64(m.Mem.ReadRaw(forceAddr(o))); got != expected[o] {
			return Result{}, fmt.Errorf("physicsSolver/%s: object %d force %d, want %d", variant, o, got, expected[o])
		}
	}
	return Result{Cycles: res.Cycles, AbortRate: rate, Events: res.Events}, nil
}
