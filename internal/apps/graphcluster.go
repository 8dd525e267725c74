package apps

import (
	"fmt"
	"math/rand"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// graphCluster is Kernel 4 of the SSCA2 graph-analysis benchmark (Table 2:
// OpenMP, locks; lockset elision + dynamic coarsening): min-cut graph
// clustering where vertices are examined in parallel and moved in or out of
// clusters based on their neighbors. The original synchronizes vertex-status
// updates with per-vertex locks using the two-path idiom of Listing 1 —
// omp_test_lock for a non-blocking fast path, falling back to omp_set_lock:
//
//	baseline    — Listing 1 verbatim: try-lock, else blocking lock
//	tsx.init    — lockset elision: one transactional begin replaces both
//	              lock checks (Section 5.2.1's "more subtle" example)
//	tsx.coarsen — plus dynamic coarsening over consecutive vertices
//
// Like the hill-climbing searches the paper discounts, the final clustering
// depends on processing order, so validation checks structural invariants:
// every vertex was updated exactly iters times (tracked under the lock),
// the critical sections were mutually exclusive (an odd/even version
// counter would expose a violation), and labels stay in range.
type graphCluster struct {
	vertices int
	degree   int
	iters    int
}

func newGraphCluster() *graphCluster {
	return &graphCluster{vertices: 2048, degree: 6, iters: 2}
}

func (w *graphCluster) Name() string { return "graphCluster" }

func (w *graphCluster) Variants() []string {
	return []string{"baseline", "tsx.init", "tsx.coarsen"}
}

// Vertex record layout: [0]=cluster label, [8]=version (odd while a
// critical section is updating), [16]=update count.
const (
	gcLabel = 0
	gcVer   = 8
	gcCount = 16
	gcSize  = 24
)

func (w *graphCluster) Run(variant string, threads int) (Result, error) {
	m := sim.New(sim.DefaultConfig())
	rng := rand.New(rand.NewSource(151))
	// The mesh-like SSCA2 cluster graphs have strong locality: neighbors are
	// near in vertex id, so parallel workers on disjoint vertex ranges rarely
	// touch each other's cache lines.
	adj := make([][]int, w.vertices)
	for v := range adj {
		adj[v] = make([]int, w.degree)
		for k := range adj[v] {
			off := 1 + rng.Intn(24)
			if rng.Intn(2) == 0 {
				off = -off
			}
			adj[v][k] = ((v+off)%w.vertices + w.vertices) % w.vertices
		}
	}
	verts := m.Mem.AllocArray(w.vertices, gcSize)
	vaddr := func(v int) sim.Addr { return verts + sim.Addr(v*gcSize) }
	for v := 0; v < w.vertices; v++ {
		m.Mem.WriteRaw(vaddr(v)+gcLabel, uint64(rng.Intn(64)))
	}
	locks := make([]*ssync.Mutex, w.vertices)
	for i := range locks {
		locks[i] = ssync.NewMutex(m.Mem)
	}

	const vertexWork = 120 // neighbor scoring / cut-cost evaluation

	// update re-labels vertex v to the minimum neighbor label (a
	// deterministic stand-in for the min-cut move) under its lock.
	update := func(c *sim.Context, tx tm.Tx, v int) {
		va := vaddr(v)
		ver := tx.Load(va + gcVer)
		tx.Store(va+gcVer, ver+1) // odd: section in progress
		best := tx.Load(va + gcLabel)
		for _, n := range adj[v] {
			if l := tx.Load(vaddr(n) + gcLabel); l < best {
				best = l
			}
		}
		tx.Store(va+gcLabel, best)
		tx.Store(va+gcCount, tx.Load(va+gcCount)+1)
		tx.Store(va+gcVer, ver+2) // even again
	}

	var res sim.Result
	rate := 0.0
	switch variant {
	case "baseline":
		res = m.Run(threads, func(c *sim.Context) {
			lo := w.vertices * c.ID() / threads
			hi := w.vertices * (c.ID() + 1) / threads
			for it := 0; it < w.iters; it++ {
				for v := lo; v < hi; v++ {
					c.Compute(vertexWork)
					// Listing 1: non-blocking path first, blocking second.
					if !locks[v].TryLock(c) {
						locks[v].Lock(c)
					}
					update(c, tm.PlainTx(c), v)
					locks[v].Unlock(c)
				}
			}
		})
	case "tsx.init", "tsx.coarsen":
		gran := 1
		if variant == "tsx.coarsen" {
			gran = 4
		}
		rt := htm.New(m)
		el := tm.NewElider(rt, m, "lockset")
		res = m.Run(threads, func(c *sim.Context) {
			vlo := w.vertices * c.ID() / threads
			vhi := w.vertices * (c.ID() + 1) / threads
			for it := 0; it < w.iters; it++ {
				var mine []int
				for v := vlo; v < vhi; v++ {
					mine = append(mine, v)
				}
				for lo := 0; lo < len(mine); lo += gran {
					hi := lo + gran
					if hi > len(mine) {
						hi = len(mine)
					}
					batch := mine[lo:hi]
					for range batch {
						c.Compute(vertexWork)
					}
					set := make([]*ssync.Mutex, len(batch))
					for i, v := range batch {
						set[i] = locks[v]
					}
					// Both lock checks of Listing 1 collapse into the
					// single transactional begin.
					el.ElideSet(c, set, func(tx tm.Tx) {
						for _, v := range batch {
							update(c, tx, v)
						}
					})
				}
			}
		})
		rate = rt.Stats.AbortRate()
	default:
		return Result{}, fmt.Errorf("graphCluster: unhandled variant %q", variant)
	}

	for v := 0; v < w.vertices; v++ {
		va := vaddr(v)
		if ver := m.Mem.ReadRaw(va + gcVer); ver != uint64(2*w.iters) {
			return Result{}, fmt.Errorf("graphCluster/%s: vertex %d version %d (mutual exclusion violated?)", variant, v, ver)
		}
		if cnt := m.Mem.ReadRaw(va + gcCount); cnt != uint64(w.iters) {
			return Result{}, fmt.Errorf("graphCluster/%s: vertex %d updated %d times, want %d", variant, v, cnt, w.iters)
		}
		if l := m.Mem.ReadRaw(va + gcLabel); l >= 64 {
			return Result{}, fmt.Errorf("graphCluster/%s: vertex %d label %d out of range", variant, v, l)
		}
	}
	return Result{Cycles: res.Cycles, AbortRate: rate, Events: res.Events}, nil
}
