package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"tsxhpc/internal/netapps"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/sim"
)

// scaleCell is one netapps.RunScale execution.
type scaleCell struct {
	mod     netapps.ScaleModule
	cores   int
	clients int
}

func (c scaleCell) String() string { return fmt.Sprintf("%s/%dC/%d", c.mod.Name, c.cores, c.clients) }

// scaleCores are the machine sizes: 2 to 8 sockets of 8 cores, 32 to 128
// hardware contexts.
var scaleCores = []int{16, 32, 48, 64}

// scaleCells draws pass k's client counts from the seed: 1000-4000 sessions
// per cell. The global-lock stack runs only on 16 cores with at most 2500
// sessions; past that its convoy costs 0.2-1 s of host time a cell. Each
// cell walks a golden-ratio sequence from a seeded start, so the passes of
// one run cover the range evenly whatever the seed; independent draws moved
// op_ref_p90 by 6% between seeds.
func scaleCells(seed int64, k int) []scaleCell {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	draw := func(lo, hi int) int {
		u := math.Mod(rng.Float64()+float64(k+1)*(math.Sqrt(5)-1)/2, 1)
		return lo + int(u*float64(hi-lo+1))
	}
	var cells []scaleCell
	for _, mod := range netapps.ScaleModules {
		if mod.Name == "global-lock" {
			cells = append(cells, scaleCell{mod, 16, draw(1000, 2500)})
			continue
		}
		for _, cores := range scaleCores {
			cells = append(cells, scaleCell{mod, cores, draw(1000, 4000)})
		}
	}
	return cells
}

// scaleRepeat indexes the designated cell of pass 0 that runs a second time
// after the timed window: tsx on 64 cores.
func scaleRepeat(cells []scaleCell) int {
	for i, c := range cells {
		if c.mod.Name == "tsx" && c.cores == 64 {
			return i
		}
	}
	return len(cells) - 1
}

// scaleConfig is the machine RunScale builds for a core count (8-core
// sockets past 8 cores, two hardware threads a core), so the traced run can
// time sim.NewE at the cell's size.
func scaleConfig(cores int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Sockets, cfg.Cores = 1, cores
	if cores > 8 {
		cfg.Sockets, cfg.Cores = cores/8, 8
	}
	cfg.ThreadsPerCore = 2
	return cfg
}

func scaleDigest(r netapps.ScaleResult) []uint64 {
	return []uint64{r.Cycles, r.Events, r.Bytes, r.ReadCycles}
}

// runScale submits one cell through the suite's runner, like runStamp.
func (b *bench) runScale(parent int32, c scaleCell, key string) (outcome, netapps.ScaleResult, error) {
	return doCell(b, parent, key, func(do int32) (netapps.ScaleResult, error) {
		id := b.tr.begin("netapps.RunScale", c.String(), do)
		defer b.tr.end(id)
		return netapps.RunScale(c.cores, c.clients, c.mod)
	})
}

// probedScale reruns a cell outside the runner with the simulator's probe
// layer armed, for the L1 and HTM/TL2 counts RunScale does not return.
// Counting only: nothing here is timed.
func probedScale(c scaleCell) (netapps.ScaleResult, simCounts, error) {
	probe.ResetGlobal()
	sim.SetRunDefaults(sim.RunDefaults{Metrics: true})
	defer func() {
		sim.SetRunDefaults(sim.RunDefaults{})
		probe.ResetGlobal()
	}()
	r, err := netapps.RunScale(c.cores, c.clients, c.mod)
	if err != nil {
		return r, simCounts{}, err
	}
	s := probe.GlobalSnapshot()
	return r, simCounts{
		events: r.Events, cycles: r.Cycles,
		l1Hits: s.Counter("l1/hits"), l1Misses: s.Counter("l1/misses"),
		invalidations: s.Counter("l1/invalidations"), remoteTransfers: s.Counter("l1/remote-transfers"),
		htmStarts: s.Counter("htm/starts"), htmCommits: s.Counter("htm/commits"),
		capacity: s.Counter("htm/abort/capacity"), conflict: s.Counter("htm/abort/conflict"),
		fallbacks:  s.Counter("tsx/site/lockset/fallbacks") + s.Counter("tsx/site/global/fallbacks"),
		stmStarts:  s.Counter("tl2/starts"),
		stmCommits: s.Counter("tl2/commits"),
	}, nil
}

var netScale = &workload{
	why: "netapps.RunScale, four A6 stacks on 16-64 cores: run-queue heap, sharded presence, NUMA transfers, netstack rings",
	setup: func(b *bench) error {
		if err := b.openSuite(); err != nil {
			return err
		}
		c := scaleCells(b.seed, -1)[0]
		_, _, err := b.runScale(0, c, "hostbench/warmup/"+c.String())
		return err
	},
	pass: func(b *bench, k int) []op {
		cells := scaleCells(b.seed, k)
		rep := scaleRepeat(cells)
		var ops []op
		for i, c := range cells {
			i, c, key := i, c, fmt.Sprintf("hostbench/scale/%s/pass%d", c, k)
			ops = append(ops, op{
				name: c.String(),
				// Traced passes time sim.NewE at the cell's machine size
				// before the op, outside its span: RunScale builds its
				// machine internally, where only tracing inside the
				// program could see it.
				before: func() {
					id := b.tr.begin("sim.NewE", c.String(), 0)
					_, err := sim.NewE(scaleConfig(c.cores))
					b.tr.end(id)
					if err != nil {
						panic(err) // scaleCores are all valid topologies
					}
				},
				run: func(parent int32) (outcome, error) {
					out, r, err := b.runScale(parent, c, key)
					if err == nil && k == 0 {
						b.record(simCounts{events: r.Events, cycles: r.Cycles}, scaleDigest(r))
						b.pass0 = append(b.pass0, r)
						if i == rep {
							b.firstRun = r
						}
					}
					return out, err
				},
			})
		}
		return ops
	},
	check: func(b *bench) error {
		cells := scaleCells(b.seed, 0)
		c := cells[scaleRepeat(cells)]
		_, r, err := b.runScale(0, c, "hostbench/repeat/"+c.String())
		if err != nil {
			return err
		}
		if first, ok := b.firstRun.(netapps.ScaleResult); !ok || first != r {
			return fmt.Errorf("%s: second run differs from the first: %+v vs %+v", c, b.firstRun, r)
		}
		return nil
	},
	counts: func(b *bench) error {
		cells := scaleCells(b.seed, 0)
		if len(b.pass0) != len(cells) {
			return fmt.Errorf("pass 0 recorded %d of %d cells", len(b.pass0), len(cells))
		}
		var total simCounts
		for i, c := range cells {
			r, cn, err := probedScale(c)
			if err != nil {
				return err
			}
			if want := b.pass0[i]; r != want {
				return fmt.Errorf("%s: arming probes changed the simulated result: %+v vs %+v", c, r, want)
			}
			total.add(cn)
		}
		b.counts = total
		return nil
	},
}
