// Package clomp reimplements the CLOMP-TM 1.6 microbenchmark (Schindewolf et
// al., SC'12) used in Section 4.1 of the paper to characterize Intel TSX:
// a synthetic memory-access generator that emulates the synchronization
// characteristics of HPC applications.
//
// An unstructured mesh is divided into partitions, each subdivided into
// zones. Every zone is pre-wired to deposit a value into a set of other
// zones (its scatter zones): each deposit (1) reads the coordinate of the
// scatter zone, (2) does some computation, and (3) deposits the new value
// back into the scatter zone. Threads process partitions concurrently, so
// deposits must be synchronized. The wiring controls the conflict
// probability; the number of scatters per zone controls how much work a
// critical section can batch.
//
// The five synchronization schemes of Figure 1 are provided: per-deposit
// LOCK-prefixed atomics (Small Atomic), a per-deposit global-lock critical
// section (Small Critical), a per-zone batched critical section (Large
// Critical), and their Intel TSX-elided equivalents (Small TM, Large TM).
package clomp

import (
	"fmt"
	"math/rand"

	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/tm"
)

// Scheme is one of the Figure 1 synchronization schemes.
type Scheme int

const (
	// Serial is the unsynchronized single-thread reference.
	Serial Scheme = iota
	// SmallAtomic synchronizes each deposit with a LOCK-prefixed atomic
	// (equivalent to '#pragma omp atomic').
	SmallAtomic
	// SmallCritical guards each deposit with a global lock
	// (equivalent to '#pragma omp critical').
	SmallCritical
	// LargeCritical batches all of a zone's deposits under one global-lock
	// critical section.
	LargeCritical
	// SmallTM executes each deposit as one lock-elided transactional region.
	SmallTM
	// LargeTM batches all of a zone's deposits into one lock-elided
	// transactional region.
	LargeTM
)

// String names the scheme as Figure 1's legend does.
func (s Scheme) String() string {
	switch s {
	case Serial:
		return "Serial"
	case SmallAtomic:
		return "Small Atomic"
	case SmallCritical:
		return "Small Critical"
	case LargeCritical:
		return "Large Critical"
	case SmallTM:
		return "Small TM"
	case LargeTM:
		return "Large TM"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists the parallel schemes in Figure 1's legend order.
var Schemes = []Scheme{SmallAtomic, SmallCritical, LargeCritical, SmallTM, LargeTM}

// Config describes one CLOMP-TM mesh.
type Config struct {
	// Partitions is the number of mesh partitions (one per thread in the
	// parallel runs; the paper's Figure 1 uses 4 with Hyper-Threading off).
	Partitions int
	// ZonesPerPartition is the number of zones in each partition.
	ZonesPerPartition int
	// Scatters is the number of scatter-zone deposits per zone (the X axis
	// of Figure 1).
	Scatters int
	// WorkPerScatter is the cycles of index/value computation accompanying
	// each deposit.
	WorkPerScatter uint64
	// CrossPartitionPct wires this percentage of scatter targets into a
	// random other partition, creating real inter-thread conflicts
	// (Figure 1 uses 0: "threads do not contend for memory locations").
	CrossPartitionPct int
	// Rounds repeats the full mesh update to lengthen the measurement.
	Rounds int
	// Seed makes the wiring deterministic.
	Seed int64
}

// DefaultConfig returns the Figure 1 configuration (scatters filled in by
// the sweep).
func DefaultConfig() Config {
	return Config{
		Partitions:        4,
		ZonesPerPartition: 192,
		Scatters:          4,
		WorkPerScatter:    24,
		Rounds:            2,
		Seed:              42,
	}
}

// Mesh is the wired scatter graph plus its simulated-memory arrays.
type Mesh struct {
	cfg    Config
	m      *sim.Machine
	coord  sim.Addr // per-zone coordinate (read-only during the run)
	value  sim.Addr // per-zone deposit accumulator
	wiring [][]int  // zone -> scatter target zone indices
}

// zones returns the total zone count.
func (me *Mesh) zones() int { return me.cfg.Partitions * me.cfg.ZonesPerPartition }

func (me *Mesh) coordAddr(z int) sim.Addr { return me.coord + sim.Addr(z*8) }
func (me *Mesh) valueAddr(z int) sim.Addr { return me.value + sim.Addr(z*8) }

// NewMesh builds and wires a mesh on machine m.
func NewMesh(m *sim.Machine, cfg Config) *Mesh {
	me := &Mesh{cfg: cfg, m: m}
	n := me.zones()
	me.coord = m.Mem.AllocLine(8 * n)
	me.value = m.Mem.AllocLine(8 * n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	me.wiring = make([][]int, n)
	for p := 0; p < cfg.Partitions; p++ {
		base := p * cfg.ZonesPerPartition
		for zi := 0; zi < cfg.ZonesPerPartition; zi++ {
			z := base + zi
			m.Mem.WriteRaw(me.coordAddr(z), uint64(7+z%13))
			targets := make([]int, cfg.Scatters)
			for s := 0; s < cfg.Scatters; s++ {
				if cfg.CrossPartitionPct > 0 && rng.Intn(100) < cfg.CrossPartitionPct {
					// Wire into a random other partition: a real conflict
					// opportunity.
					op := (p + 1 + rng.Intn(cfg.Partitions-1)) % cfg.Partitions
					targets[s] = op*cfg.ZonesPerPartition + rng.Intn(cfg.ZonesPerPartition)
				} else {
					// Scatter within the partition's own zones.
					targets[s] = base + (zi+1+s*7)%cfg.ZonesPerPartition
				}
			}
			me.wiring[z] = targets
		}
	}
	return me
}

// depositValue is the "computation" of a scatter update: it derives the
// value to deposit from the scatter zone's coordinate. Integer math keeps
// checksums exact across schemes.
func depositValue(coord uint64) uint64 { return 1 + coord%7 }

// CheckSum returns the total deposited over all zones (untimed), used by
// tests to verify every scheme performs identical work.
func (me *Mesh) CheckSum() uint64 {
	var sum uint64
	for z := 0; z < me.zones(); z++ {
		sum += me.m.Mem.ReadRaw(me.valueAddr(z))
	}
	return sum
}

// ExpectedSum computes the checksum the run should produce (wiring-derived,
// untimed).
func (me *Mesh) ExpectedSum() uint64 {
	var sum uint64
	for z := 0; z < me.zones(); z++ {
		for _, tgt := range me.wiring[z] {
			sum += depositValue(me.m.Mem.ReadRaw(me.coordAddr(tgt)))
		}
	}
	return sum * uint64(me.cfg.Rounds)
}

// Result is one scheme execution.
type Result struct {
	Cycles    uint64
	AbortRate float64
	Events    uint64 // simulated timed events processed
}

// SimEvents reports the simulated event count (runner.Eventer).
func (r Result) SimEvents() uint64 { return r.Events }

// Run executes the mesh update under the given scheme with the given thread
// count and returns the simulated execution time. Threads own whole
// partitions (partition p is processed by thread p%threads).
func Run(m *sim.Machine, mesh *Mesh, scheme Scheme, threads int) Result {
	cfg := mesh.cfg
	var sys *tm.System
	var glock *ssync.Mutex
	switch scheme {
	case SmallTM, LargeTM:
		sys = tm.NewSystem(m, tm.TSX)
	case SmallCritical, LargeCritical:
		glock = ssync.NewMutex(m.Mem)
	}

	// processZone performs one zone's scatter deposits through op, which
	// supplies the (possibly synchronized) load/store for each deposit.
	deposit := func(c *sim.Context, tx tm.Tx, tgt int) {
		coord := tx.Load(mesh.coordAddr(tgt))
		c.Compute(cfg.WorkPerScatter)
		va := mesh.valueAddr(tgt)
		tx.Store(va, tx.Load(va)+depositValue(coord))
	}

	body := func(c *sim.Context) {
		for round := 0; round < cfg.Rounds; round++ {
			for p := c.ID(); p < cfg.Partitions; p += threads {
				base := p * cfg.ZonesPerPartition
				for zi := 0; zi < cfg.ZonesPerPartition; zi++ {
					z := base + zi
					targets := mesh.wiring[z]
					switch scheme {
					case Serial:
						for _, tgt := range targets {
							deposit(c, tm.PlainTx(c), tgt)
						}
					case SmallAtomic:
						for _, tgt := range targets {
							coord := c.Load(mesh.coordAddr(tgt))
							c.Compute(cfg.WorkPerScatter)
							ssync.AtomicAdd(c, mesh.valueAddr(tgt), depositValue(coord))
						}
					case SmallCritical:
						for _, tgt := range targets {
							glock.Lock(c)
							deposit(c, tm.PlainTx(c), tgt)
							glock.Unlock(c)
						}
					case LargeCritical:
						glock.Lock(c)
						for _, tgt := range targets {
							deposit(c, tm.PlainTx(c), tgt)
						}
						glock.Unlock(c)
					case SmallTM:
						for _, tgt := range targets {
							sys.Atomic(c, func(tx tm.Tx) { deposit(c, tx, tgt) })
						}
					case LargeTM:
						sys.Atomic(c, func(tx tm.Tx) {
							for _, tgt := range targets {
								deposit(c, tx, tgt)
							}
						})
					}
				}
			}
		}
	}

	if scheme == Serial {
		threads = 1
	}
	res := m.Run(threads, body)
	out := Result{Cycles: res.Cycles, Events: res.Events}
	if sys != nil {
		out.AbortRate = sys.AbortRate()
	}
	return out
}
