package apps

import (
	"fmt"
	"math/rand"

	"tsxhpc/internal/htm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// nufft is the 3-D non-uniform FFT workload of Table 2 (OpenMP, locks;
// dynamic coarsening), focusing on the adjoint-NUFFT operator: an
// unpredictable set of non-uniformly spaced samples is convolved onto a
// uniform spectral grid. The original guards the grid with a coarse array
// of region locks, so unrelated samples that hash to the same region
// serialize — "significant concurrency within a critical section hidden
// under lock contention" (Section 5.2), which transactional elision
// exposes:
//
//	baseline    — lock the window's region lock(s), deposit the kernel
//	tsx.init    — elide the lockset with one transactional region
//	tsx.coarsen — plus dynamic coarsening (batches of samples per region)
type nufft struct {
	grid    int
	samples int
	window  int // convolution kernel width (cells per sample)
	regions int // region locks guarding the grid
}

func newNUFFT() *nufft {
	return &nufft{grid: 16384, samples: 10240, window: 8, regions: 32}
}

func (w *nufft) Name() string { return "nufft" }

func (w *nufft) Variants() []string {
	return []string{"baseline", "tsx.init", "tsx.coarsen"}
}

func (w *nufft) Run(variant string, threads int) (Result, error) {
	m := sim.New(sim.DefaultConfig())
	rng := rand.New(rand.NewSource(149))
	type sample struct {
		cell int
		val  uint64
	}
	samples := make([]sample, w.samples)
	expected := make([]uint64, w.grid)
	for i := range samples {
		cell := rng.Intn(w.grid - w.window)
		val := uint64(1 + rng.Intn(7))
		samples[i] = sample{cell, val}
		for k := 0; k < w.window; k++ {
			expected[cell+k] += val * uint64(k+1)
		}
	}
	grid := m.Mem.AllocLine(8 * w.grid)
	cellAddr := func(g int) sim.Addr { return grid + sim.Addr(g*8) }
	locks := make([]*ssync.Mutex, w.regions)
	for i := range locks {
		locks[i] = ssync.NewMutex(m.Mem)
	}
	regionOf := func(cell int) int { return cell * w.regions / w.grid }

	const sampleWork = 110 // kernel-weight evaluation per sample

	deposit := func(tx tm.Tx, s sample) {
		for k := 0; k < w.window; k++ {
			a := cellAddr(s.cell + k)
			tx.Store(a, tx.Load(a)+s.val*uint64(k+1))
		}
	}
	lockSetOf := func(batch []sample) []*ssync.Mutex {
		idx := make([]int, 0, 2*len(batch))
		for _, s := range batch {
			idx = append(idx, regionOf(s.cell), regionOf(s.cell+w.window-1))
		}
		idx = sortedUnique(idx)
		set := make([]*ssync.Mutex, len(idx))
		for i, r := range idx {
			set[i] = locks[r]
		}
		return set
	}

	gran := 0
	switch variant {
	case "tsx.init":
		gran = 1
	case "tsx.coarsen":
		gran = 3
	}

	var res sim.Result
	rate := 0.0
	switch variant {
	case "baseline":
		res = m.Run(threads, func(c *sim.Context) {
			for i := c.ID(); i < len(samples); i += threads {
				s := samples[i]
				c.Compute(sampleWork)
				set := lockSetOf(samples[i : i+1])
				for _, l := range set {
					l.Lock(c)
				}
				deposit(tm.PlainTx(c), s)
				for k := len(set) - 1; k >= 0; k-- {
					set[k].Unlock(c)
				}
			}
		})
	case "tsx.init", "tsx.coarsen":
		rt := htm.New(m)
		el := tm.NewElider(rt, m, "lockset")
		res = m.Run(threads, func(c *sim.Context) {
			var mine []sample
			for i := c.ID(); i < len(samples); i += threads {
				mine = append(mine, samples[i])
			}
			for lo := 0; lo < len(mine); lo += gran {
				hi := lo + gran
				if hi > len(mine) {
					hi = len(mine)
				}
				batch := mine[lo:hi]
				for range batch {
					c.Compute(sampleWork)
				}
				el.ElideSet(c, lockSetOf(batch), func(tx tm.Tx) {
					for _, s := range batch {
						deposit(tx, s)
					}
				})
			}
		})
		rate = rt.Stats.AbortRate()
	default:
		return Result{}, fmt.Errorf("nufft: unhandled variant %q", variant)
	}

	for g := 0; g < w.grid; g++ {
		if got := m.Mem.ReadRaw(cellAddr(g)); got != expected[g] {
			return Result{}, fmt.Errorf("nufft/%s: cell %d = %d, want %d", variant, g, got, expected[g])
		}
	}
	return Result{Cycles: res.Cycles, AbortRate: rate, Events: res.Events}, nil
}
