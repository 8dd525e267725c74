// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index in DESIGN.md §3) from the
// reimplemented systems, rendering each as a text table with the same rows
// and series the paper reports. cmd/reproduce renders each as one catalog
// section; the root benchmarks and hostbench drive the same Suite methods.
//
// Every simulation cell — one (workload, mode, threads, config) execution on
// a private sim.Machine — is dispatched through a runner.Engine: cells fan
// out across host worker goroutines and are memoized by key, so cells shared
// between experiments (Figure 2 and Table 1 sweep the same STAMP grid;
// Figure 4 and Figure 5 share baselines) simulate at most once per process.
// Each experiment submits all of its cells first and then collects futures
// in a fixed order, so rendered output is byte-for-byte identical at any
// host parallelism level (see DESIGN.md §runner).
package experiments

import (
	"fmt"

	"tsxhpc/internal/apps"
	"tsxhpc/internal/clomp"
	"tsxhpc/internal/core"
	"tsxhpc/internal/harness"
	"tsxhpc/internal/htm"
	"tsxhpc/internal/netapps"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/rmstm"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/tm"
)

// Threads are the thread counts every multi-thread experiment sweeps.
var Threads = []int{1, 2, 4, 8}

// Suite is one experiment context: all cells dispatched through it share a
// job engine (memo cache + host worker pool). Distinct suites are fully
// independent — tests use that to compare serial and parallel runs.
type Suite struct {
	// E is the job engine; its Stats expose cache hits and simulated-event
	// totals for perf reporting.
	E *runner.Engine
}

// NewSuite creates a suite whose engine uses the given host worker bound
// (<= 0 means GOMAXPROCS).
func NewSuite(parallel int) *Suite { return &Suite{E: runner.New(parallel)} }

// simCell is the result of an experiment-local simulation job: the headline
// cycle count, an experiment-specific metric, and the simulated event count
// for throughput accounting.
type simCell struct {
	Cycles uint64
	Value  float64
	Events uint64
}

// SimEvents reports the simulated event count (runner.Eventer).
func (r simCell) SimEvents() uint64 { return r.Events }

// Cell submitters. Keys fully determine the simulation, so equal keys from
// different experiments share one run.

func (s *Suite) stampCell(name string, mo tm.Mode, th int) runner.Future[stamp.Result] {
	key := runner.Key(fmt.Sprintf("stamp/%s/%s/%dT", name, mo, th))
	return runner.Submit(s.E, key, func() (stamp.Result, error) { return stamp.Execute(name, mo, th) })
}

func (s *Suite) rmstmCell(name string, sc rmstm.Scheme, th, nLocks int) runner.Future[rmstm.Result] {
	key := runner.Key(fmt.Sprintf("rmstm/%s/%s/%dT/locks%d", name, sc, th, nLocks))
	return runner.Submit(s.E, key, func() (rmstm.Result, error) { return rmstm.Execute(name, sc, th, nLocks) })
}

func (s *Suite) appsCell(name, variant string, th int) runner.Future[apps.Result] {
	key := runner.Key(fmt.Sprintf("apps/%s/%s/%dT", name, variant, th))
	return runner.Submit(s.E, key, func() (apps.Result, error) { return apps.Run(name, variant, th) })
}

func (s *Suite) netCell(name string, mode core.LockMode) runner.Future[netapps.Result] {
	key := runner.Key(fmt.Sprintf("net/%s/%s", name, mode))
	return runner.Submit(s.E, key, func() (netapps.Result, error) { return netapps.Run(name, mode) })
}

// clompCell runs one Figure 1 cell: the paper's CLOMP-TM configuration with
// the given scatter count, Hyper-Threading disabled.
func (s *Suite) clompCell(scatters int, scheme clomp.Scheme, threads int) runner.Future[clomp.Result] {
	key := runner.Key(fmt.Sprintf("clomp/sc%d/%s/%dT", scatters, scheme, threads))
	return runner.Submit(s.E, key, func() (clomp.Result, error) {
		cfg := clomp.DefaultConfig()
		cfg.Scatters = scatters
		mcfg := sim.DefaultConfig()
		mcfg.DisableHT = true
		m := sim.New(mcfg)
		return clomp.Run(m, clomp.NewMesh(m, cfg), scheme, threads), nil
	})
}

// figure1Scatters are the scatter counts Figure 1 sweeps; Large TM crosses
// Small Atomic between 3 and 4.
var figure1Scatters = []int{1, 2, 3, 4, 6, 8, 12, 16}

// Figure1 reproduces the CLOMP-TM characterization: speedup over serial at
// 4 threads (Hyper-Threading off) for the five synchronization schemes
// across scatter counts.
func (s *Suite) Figure1() (*harness.Figure, error) {
	scatters := figure1Scatters
	refs := make([]runner.Future[clomp.Result], len(scatters))
	cells := make(map[clomp.Scheme][]runner.Future[clomp.Result])
	for i, sc := range scatters {
		refs[i] = s.clompCell(sc, clomp.Serial, 1)
		for _, sch := range clomp.Schemes {
			cells[sch] = append(cells[sch], s.clompCell(sc, sch, 4))
		}
	}
	fig := &harness.Figure{
		Title:  "Figure 1 — CLOMP-TM, 4 threads: speedup vs serial",
		XLabel: "scatters/zone",
	}
	for _, sc := range scatters {
		fig.XTicks = append(fig.XTicks, fmt.Sprint(sc))
	}
	for _, sch := range clomp.Schemes {
		series := harness.Series{Name: sch.String()}
		for i := range scatters {
			ref, err := refs[i].Wait()
			if err != nil {
				return nil, err
			}
			r, err := cells[sch][i].Wait()
			if err != nil {
				return nil, err
			}
			series.Y = append(series.Y, float64(ref.Cycles)/float64(r.Cycles))
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Figure2 reproduces the STAMP execution times, normalized to sgl at one
// thread (lower is better), for sgl / tl2 / tsx at 1–8 threads.
func (s *Suite) Figure2() (*harness.Table, error) {
	modes := []tm.Mode{tm.SGL, tm.TL2, tm.TSX}
	t := &harness.Table{
		Title: "Figure 2 — STAMP execution time normalized to sgl@1T (lower is better)",
		Head:  []string{"workload"},
	}
	for _, mo := range modes {
		for _, th := range Threads {
			t.Head = append(t.Head, fmt.Sprintf("%s/%dT", mo, th))
		}
	}
	names := stamp.Names()
	refs := make([]runner.Future[stamp.Result], len(names))
	cells := make([][]runner.Future[stamp.Result], len(names))
	for i, name := range names {
		refs[i] = s.stampCell(name, tm.SGL, 1)
		for _, mo := range modes {
			for _, th := range Threads {
				cells[i] = append(cells[i], s.stampCell(name, mo, th))
			}
		}
	}
	for i, name := range names {
		ref, err := refs[i].Wait()
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, f := range cells[i] {
			r, err := f.Wait()
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", float64(r.Cycles)/float64(ref.Cycles)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table1 reproduces the STAMP transactional abort rates (%) for tl2 and tsx
// at 1–8 threads.
func (s *Suite) Table1() (*harness.Table, error) {
	t := &harness.Table{
		Title: "Table 1 — STAMP transactional abort rates (%)",
		Head:  []string{"workload"},
	}
	for _, th := range Threads {
		t.Head = append(t.Head, fmt.Sprintf("tl2/%dT", th), fmt.Sprintf("tsx/%dT", th))
	}
	names := stamp.Names()
	cells := make([][]runner.Future[stamp.Result], len(names))
	for i, name := range names {
		for _, th := range Threads {
			cells[i] = append(cells[i], s.stampCell(name, tm.TL2, th), s.stampCell(name, tm.TSX, th))
		}
	}
	for i, name := range names {
		row := []string{name}
		for _, f := range cells[i] {
			r, err := f.Wait()
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", r.AbortRate))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure3 reproduces the RMS-TM speedups relative to fine-grained locking
// at one thread, for fgl / sgl / tsx.
func (s *Suite) Figure3() (*harness.Table, error) {
	t := &harness.Table{
		Title: "Figure 3 — RMS-TM speedup vs fgl@1T",
		Head:  []string{"workload"},
	}
	for _, sc := range rmstm.Schemes {
		for _, th := range Threads {
			t.Head = append(t.Head, fmt.Sprintf("%s/%dT", sc, th))
		}
	}
	names := rmstm.Names()
	refs := make([]runner.Future[rmstm.Result], len(names))
	cells := make([][]runner.Future[rmstm.Result], len(names))
	for i, name := range names {
		refs[i] = s.rmstmCell(name, rmstm.FGL, 1, rmstm.DefaultLocks)
		for _, sc := range rmstm.Schemes {
			for _, th := range Threads {
				cells[i] = append(cells[i], s.rmstmCell(name, sc, th, rmstm.DefaultLocks))
			}
		}
	}
	for i, name := range names {
		ref, err := refs[i].Wait()
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, f := range cells[i] {
			r, err := f.Wait()
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", harness.Speedup(ref.Cycles, r.Cycles)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure4 reproduces the real-world workload speedups relative to the
// baseline at one thread for baseline / tsx.init / tsx.coarsen, and reports
// the tsx.coarsen-over-baseline mean at 8 threads (the paper's 1.41x).
func (s *Suite) Figure4() (*harness.Table, float64, error) {
	t := &harness.Table{
		Title: "Figure 4 — real-world workloads: speedup vs baseline@1T",
		Head:  []string{"workload"},
	}
	for _, v := range apps.FigureVariants {
		for _, th := range Threads {
			t.Head = append(t.Head, fmt.Sprintf("%s/%dT", v, th))
		}
	}
	names := apps.Names()
	refs := make([]runner.Future[apps.Result], len(names))
	cells := make([][]runner.Future[apps.Result], len(names))
	for i, name := range names {
		refs[i] = s.appsCell(name, "baseline", 1)
		for _, v := range apps.FigureVariants {
			for _, th := range Threads {
				cells[i] = append(cells[i], s.appsCell(name, v, th))
			}
		}
	}
	var gains []float64
	for i, name := range names {
		ref, err := refs[i].Wait()
		if err != nil {
			return nil, 0, err
		}
		row := []string{name}
		var base8, coarsen8 uint64
		k := 0
		for _, v := range apps.FigureVariants {
			for _, th := range Threads {
				r, err := cells[i][k].Wait()
				k++
				if err != nil {
					return nil, 0, err
				}
				row = append(row, fmt.Sprintf("%.2f", harness.Speedup(ref.Cycles, r.Cycles)))
				if th == 8 {
					switch v {
					case "baseline":
						base8 = r.Cycles
					case "tsx.coarsen":
						coarsen8 = r.Cycles
					}
				}
			}
		}
		gains = append(gains, harness.Speedup(base8, coarsen8))
		t.Rows = append(t.Rows, row)
	}
	return t, harness.Geomean(gains), nil
}

// Figure5a reproduces the histogram comparison: atomic vs privatize vs
// transactional granularities, execution time normalized to atomic@1T.
func (s *Suite) Figure5a() (*harness.Figure, error) {
	variants := []string{"baseline", "privatize", "tsx.gran1", "tsx.gran8", "tsx.gran32"}
	return s.figure5("histogram", "Figure 5a — histogram: time normalized to atomic@1T", variants)
}

// Figure5b reproduces the physicsSolver comparison: mutex vs barrier vs
// transactional granularities.
func (s *Suite) Figure5b() (*harness.Figure, error) {
	variants := []string{"baseline", "barrier", "tsx.gran1", "tsx.gran2", "tsx.gran3"}
	return s.figure5("physicsSolver", "Figure 5b — physicsSolver: time normalized to mutex@1T", variants)
}

func (s *Suite) figure5(workload, title string, variants []string) (*harness.Figure, error) {
	refFut := s.appsCell(workload, "baseline", 1)
	cells := make(map[string][]runner.Future[apps.Result])
	for _, v := range variants {
		for _, th := range Threads {
			cells[v] = append(cells[v], s.appsCell(workload, v, th))
		}
	}
	ref, err := refFut.Wait()
	if err != nil {
		return nil, err
	}
	fig := &harness.Figure{Title: title, XLabel: "threads"}
	for _, th := range Threads {
		fig.XTicks = append(fig.XTicks, fmt.Sprint(th))
	}
	for _, v := range variants {
		series := harness.Series{Name: v}
		for _, f := range cells[v] {
			r, err := f.Wait()
			if err != nil {
				return nil, err
			}
			series.Y = append(series.Y, float64(r.Cycles)/float64(ref.Cycles))
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Figure6 reproduces the user-level TCP/IP stack study: server-side read
// bandwidth normalized to the mutex stack for the five locking-module
// implementations, plus the tsx.busywait average gain (the paper's 1.31x).
func (s *Suite) Figure6() (*harness.Table, float64, error) {
	t := &harness.Table{
		Title: "Figure 6 — TCP/IP stack: read bandwidth normalized to mutex",
		Head:  []string{"workload"},
	}
	for _, mo := range netapps.Modes {
		t.Head = append(t.Head, mo.String())
	}
	names := netapps.Names()
	cells := make([][]runner.Future[netapps.Result], len(names))
	for i, name := range names {
		for _, mo := range netapps.Modes {
			cells[i] = append(cells[i], s.netCell(name, mo))
		}
	}
	var gains []float64
	for i, name := range names {
		ref, err := cells[i][0].Wait() // Modes[0] is the mutex reference
		if err != nil {
			return nil, 0, err
		}
		row := []string{name}
		for k, mo := range netapps.Modes {
			r, err := cells[i][k].Wait()
			if err != nil {
				return nil, 0, err
			}
			norm := r.Bandwidth() / ref.Bandwidth()
			row = append(row, fmt.Sprintf("%.2f", norm))
			if mo.String() == "tsx.busywait" {
				gains = append(gains, norm)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, harness.Mean(gains), nil
}

// RetrySweep reproduces the Section 3 policy study: the paper retried a
// failed transactional execution up to 5 times before explicitly acquiring
// the lock ("for our hardware and workloads, 5 gave the best overall
// performance"). The sweep measures a contended mixed workload across
// retry budgets.
func (s *Suite) RetrySweep(budgets []int) (*harness.Figure, error) {
	futs := make([]runner.Future[simCell], len(budgets))
	for i, budget := range budgets {
		futs[i] = s.retryCell(budget)
	}
	fig := &harness.Figure{
		Title:   "Retry policy — contended-workload cycles vs max retries (Section 3)",
		XLabel:  "max retries",
		YFormat: "%.0f",
	}
	for _, b := range budgets {
		fig.XTicks = append(fig.XTicks, fmt.Sprint(b))
	}
	series := harness.Series{Name: "kilocycles"}
	for i := range budgets {
		r, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		series.Y = append(series.Y, float64(r.Cycles)/1000)
	}
	fig.Series = append(fig.Series, series)
	return fig, nil
}

// retryCell runs RetrySweep's contended mix under one retry budget.
func (s *Suite) retryCell(budget int) runner.Future[simCell] {
	key := runner.Key(fmt.Sprintf("retry/%d", budget))
	return runner.Submit(s.E, key, func() (simCell, error) {
		m := sim.New(sim.DefaultConfig())
		sys := tm.NewSystem(m, tm.TSX)
		sys.MaxRetries = budget
		// A contended array-update mix: most updates are local, some hit a
		// shared hot region, so both conflict retries and fallbacks occur.
		hot := m.Mem.AllocLine(8 * 32)
		local := m.Mem.AllocArray(8, sim.LineSize)
		res := m.Run(8, func(c *sim.Context) {
			mine := local + sim.Addr(c.ID()*sim.LineSize)
			for i := 0; i < 400; i++ {
				h := hot + sim.Addr(c.Rand.Intn(32)*8)
				sys.Atomic(c, func(tx tm.Tx) {
					tx.Store(mine, tx.Load(mine)+1)
					tx.Store(h, tx.Load(h)+1)
					tx.Ctx().Compute(40)
				})
				c.Compute(120)
			}
		})
		return simCell{Cycles: res.Cycles, Events: res.Events}, nil
	})
}

// HTCapacityAblation quantifies the Hyper-Threading capacity observation of
// Table 1 directly: the same medium-footprint transaction mix runs with 4
// threads on 4 cores versus 8 threads on 4 cores, and with HT the effective
// per-thread L1 capacity halves and abort rates jump.
func (s *Suite) HTCapacityAblation() (*harness.Table, error) {
	threadCounts := []int{1, 2, 4, 8}
	futs := make([]runner.Future[simCell], len(threadCounts))
	for i, th := range threadCounts {
		th := th
		key := runner.Key(fmt.Sprintf("htcap/%dT", th))
		futs[i] = runner.Submit(s.E, key, func() (simCell, error) {
			m := sim.New(sim.DefaultConfig())
			sys := tm.NewSystem(m, tm.TSX)
			region := m.Mem.AllocLine(64 * 1024) // 64 KB shared region
			lines := 64 * 1024 / sim.LineSize
			res := m.Run(th, func(c *sim.Context) {
				for i := 0; i < 150; i++ {
					base := c.Rand.Intn(lines - 40)
					sys.Atomic(c, func(tx tm.Tx) {
						for k := 0; k < 36; k++ {
							a := region + sim.Addr((base+k)*sim.LineSize)
							tx.Store(a, tx.Load(a)+1)
						}
					})
					c.Compute(300)
				}
			})
			return simCell{Cycles: res.Cycles, Value: sys.AbortRate(), Events: res.Events}, nil
		})
	}
	t := &harness.Table{
		Title: "HT capacity ablation — abort rate of a 36-line transaction mix",
		Head:  []string{"threads", "abort %"},
	}
	for i, th := range threadCounts {
		r, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(th), fmt.Sprintf("%.0f", r.Value)})
	}
	return t, nil
}

// ConflictWiringAblation sweeps CLOMP-TM's cross-partition wiring
// percentage, showing abort rates rising with real data conflicts (the
// suite's conflict-probability knob).
func (s *Suite) ConflictWiringAblation() (*harness.Figure, error) {
	pcts := []int{0, 10, 25, 50, 80}
	futs := make([]runner.Future[clomp.Result], len(pcts))
	for i, pct := range pcts {
		pct := pct
		key := runner.Key(fmt.Sprintf("clomp/cross%d", pct))
		futs[i] = runner.Submit(s.E, key, func() (clomp.Result, error) {
			cfg := clomp.DefaultConfig()
			cfg.CrossPartitionPct = pct
			cfg.Scatters = 6
			mcfg := sim.DefaultConfig()
			mcfg.DisableHT = true
			m := sim.New(mcfg)
			mesh := clomp.NewMesh(m, cfg)
			return clomp.Run(m, mesh, clomp.LargeTM, 4), nil
		})
	}
	fig := &harness.Figure{
		Title:   "CLOMP-TM conflict knob — Large TM abort rate vs cross-partition wiring",
		XLabel:  "cross%",
		YFormat: "%.1f",
	}
	series := harness.Series{Name: "abort %"}
	for i, pct := range pcts {
		r, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		fig.XTicks = append(fig.XTicks, fmt.Sprint(pct))
		series.Y = append(series.Y, r.AbortRate)
	}
	fig.Series = append(fig.Series, series)
	return fig, nil
}

// AdaptiveCoarseningAblation evaluates the Section 5.4.3 future-work
// feature implemented in core.AdaptiveCoarsener: a histogram-style kernel
// run with each static granularity and with AIMD-adaptive granularity, at 1
// and 8 threads. The adaptive runtime should track the best static choice
// at both ends of the Figure 5 inflection without tuning.
func (s *Suite) AdaptiveCoarseningAblation() (*harness.Table, error) {
	kernel := func(threads int, adaptive bool, gran int) runner.Future[simCell] {
		key := runner.Key(fmt.Sprintf("adaptive/%dT/adaptive=%t/gran%d", threads, adaptive, gran))
		return runner.Submit(s.E, key, func() (simCell, error) {
			m := sim.New(sim.DefaultConfig())
			sys := tm.NewSystem(m, tm.TSX)
			const items, bins = 12000, 65536
			table := m.Mem.AllocLine(8 * bins)
			res := m.Run(threads, func(c *sim.Context) {
				rng := c.Rand
				mine := make([]int, 0, items/threads+1)
				for i := c.ID(); i < items; i += threads {
					mine = append(mine, rng.Intn(bins))
				}
				item := func(tx tm.Tx, i int) {
					c.Compute(14)
					a := table + sim.Addr(mine[i]*8)
					tx.Store(a, tx.Load(a)+1)
				}
				if adaptive {
					core.NewAdaptiveCoarsener(sys).Do(c, len(mine), item)
				} else {
					core.DoCoarsened(sys, c, len(mine), gran, item)
				}
			})
			return simCell{Cycles: res.Cycles, Events: res.Events}, nil
		})
	}
	threadCounts := []int{1, 8}
	grans := []int{1, 8, 32}
	futs := make([][]runner.Future[simCell], len(threadCounts))
	for i, th := range threadCounts {
		for _, g := range grans {
			futs[i] = append(futs[i], kernel(th, false, g))
		}
		futs[i] = append(futs[i], kernel(th, true, 0))
	}
	t := &harness.Table{
		Title: "Adaptive coarsening (§5.4.3 future work) — kilocycles",
		Head:  []string{"threads", "gran1", "gran8", "gran32", "adaptive"},
	}
	for i, th := range threadCounts {
		row := []string{fmt.Sprint(th)}
		for _, f := range futs[i] {
			r, err := f.Wait()
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", r.Cycles/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// LocksetAblation measures lockset elision in isolation: acquiring a pair
// of fine-grained locks per critical section versus one transactional
// begin, on uncontended data (Section 5.2.1's overhead argument).
func (s *Suite) LocksetAblation() (*harness.Table, error) {
	const ops = 2000
	pair := runner.Submit(s.E, "lockset/pair", func() (simCell, error) {
		m := sim.New(sim.DefaultConfig())
		l1, l2 := ssync.NewMutex(m.Mem), ssync.NewMutex(m.Mem)
		data := m.Mem.AllocLine(16)
		res := m.Run(1, func(c *sim.Context) {
			for i := 0; i < ops; i++ {
				l1.Lock(c)
				l2.Lock(c)
				c.Store(data, c.Load(data)+1)
				c.Store(data+8, c.Load(data+8)+1)
				l2.Unlock(c)
				l1.Unlock(c)
			}
		})
		return simCell{Cycles: res.Cycles, Events: res.Events}, nil
	})
	elide := runner.Submit(s.E, "lockset/elision", func() (simCell, error) {
		m := sim.New(sim.DefaultConfig())
		sys := tm.NewSystem(m, tm.TSX)
		data := m.Mem.AllocLine(16)
		res := m.Run(1, func(c *sim.Context) {
			for i := 0; i < ops; i++ {
				sys.Atomic(c, func(tx tm.Tx) {
					tx.Store(data, tx.Load(data)+1)
					tx.Store(data+8, tx.Load(data+8)+1)
				})
			}
		})
		return simCell{Cycles: res.Cycles, Events: res.Events}, nil
	})
	t := &harness.Table{
		Title: "Lockset elision ablation — cycles per pair-locked critical section",
		Head:  []string{"scheme", "cycles/op"},
	}
	pr, err := pair.Wait()
	if err != nil {
		return nil, err
	}
	er, err := elide.Wait()
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"two locks", fmt.Sprintf("%.0f", float64(pr.Cycles)/ops)})
	t.Rows = append(t.Rows, []string{"lockset elision", fmt.Sprintf("%.0f", float64(er.Cycles)/ops)})
	return t, nil
}

// The A6 scaling grid: the core sweep holds the session count at
// scaleFixedClients while the machine grows from the paper's single socket to
// eight 8-core sockets; the client sweep holds a mid-size machine at
// scaleFixedCores while sessions grow 10² → 10⁵. Together they span the full
// 1→64-core × 10²→10⁵-client space without simulating the pathological
// global-lock 64-core/10⁵-client corner, whose convoy costs two orders of
// magnitude more host time than every other cell combined.
var (
	scaleCoreAxis   = []int{1, 4, 16, 64}
	scaleClientAxis = []int{100, 1000, 10000, 100000}
)

const (
	scaleFixedClients = 1000
	scaleFixedCores   = 16
)

// scaleCell submits one cell of the A6 scaling grid: one (module, cores,
// clients) execution of the packet-streaming workload on its own machine.
func (s *Suite) scaleCell(mod netapps.ScaleModule, cores, clients int) runner.Future[netapps.ScaleResult] {
	key := runner.Key(fmt.Sprintf("scale/%s/%dC/%d", mod.Name, cores, clients))
	return runner.Submit(s.E, key, func() (netapps.ScaleResult, error) {
		return netapps.RunScale(cores, clients, mod)
	})
}

// ScalingCurve renders the scale-out study (A6): server-side read bandwidth
// of the packet-streaming workload for the four synchronization schemes, as
// the machine grows 1 → 64 cores (at a fixed client population) and as the
// client population grows 10² → 10⁵ (on a fixed 16-core machine). The
// single-global-lock stack collapses as cores grow while the sharded, TL2,
// and TSX-elision stacks keep scaling — the Section 6 argument extended past
// the paper's 8-thread machine.
func (s *Suite) ScalingCurve() (*harness.Table, *harness.Table, error) {
	coreFuts := make([][]runner.Future[netapps.ScaleResult], len(netapps.ScaleModules))
	clientFuts := make([][]runner.Future[netapps.ScaleResult], len(netapps.ScaleModules))
	for i, mod := range netapps.ScaleModules {
		for _, cores := range scaleCoreAxis {
			coreFuts[i] = append(coreFuts[i], s.scaleCell(mod, cores, scaleFixedClients))
		}
		for _, clients := range scaleClientAxis {
			clientFuts[i] = append(clientFuts[i], s.scaleCell(mod, scaleFixedCores, clients))
		}
	}
	coresT := &harness.Table{
		Title: fmt.Sprintf("Scaling curve — read bandwidth (bytes/kcycle) vs cores @%d clients", scaleFixedClients),
		Head:  []string{"module"},
	}
	for _, cores := range scaleCoreAxis {
		coresT.Head = append(coresT.Head, fmt.Sprintf("%dC", cores))
	}
	for i, mod := range netapps.ScaleModules {
		row := []string{mod.Name}
		for _, f := range coreFuts[i] {
			r, err := f.Wait()
			if err != nil {
				return nil, nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", r.Bandwidth()))
		}
		coresT.Rows = append(coresT.Rows, row)
	}
	clientsT := &harness.Table{
		Title: fmt.Sprintf("Scaling curve — read bandwidth (bytes/kcycle) vs clients @%d cores", scaleFixedCores),
		Head:  []string{"module"},
	}
	for _, clients := range scaleClientAxis {
		clientsT.Head = append(clientsT.Head, fmt.Sprint(clients))
	}
	for i, mod := range netapps.ScaleModules {
		row := []string{mod.Name}
		for _, f := range clientFuts[i] {
			r, err := f.Wait()
			if err != nil {
				return nil, nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", r.Bandwidth()))
		}
		clientsT.Rows = append(clientsT.Rows, row)
	}
	return coresT, clientsT, nil
}

// modelAnatomyCell is one (HTM model, allocator layout) execution of the
// model-anatomy kernel: the TSX runtime's raw counters plus the simulated
// totals, plain exported data so warm-cache runs replay the table
// byte-identically.
type modelAnatomyCell struct {
	Starts    uint64
	Commits   uint64
	Fallbacks uint64
	Aborts    [htm.NumCauses]uint64
	Cycles    uint64
	Events    uint64
}

// SimEvents reports the simulated event count (runner.Eventer).
func (r modelAnatomyCell) SimEvents() uint64 { return r.Events }

// modelCell submits one A7 cell: the capacity/conflict kernel on a machine
// built with the given HTM model and allocator-placement layout.
//
// The kernel is engineered to straddle every model's structural limits: each
// thread owns an arena of 24 separately allocated lines — separately, so the
// placement policy (not the kernel) decides which cache sets they land on —
// and cycles through transactions writing 6, 15, and 24 of them plus one
// shared hot line. Under the packed layout the arena strides across sets and
// everything fits; under the colliding layout all lines share set 0, so a
// 15-line write set overflows the 8-way L1 (capacity aborts for the
// cache-tracked models, absorbed by the victim buffer) while the strict
// model's fixed 16-entry write set doesn't notice the cache at all — its
// aborts depend only on the 24-line footprint. The hot line supplies the
// conflicts that separate requester-wins from requester-loses.
func (s *Suite) modelCell(model, layout string) runner.Future[modelAnatomyCell] {
	key := runner.Key(fmt.Sprintf("modelanatomy/%s/%s", model, layout))
	return runner.Submit(s.E, key, func() (modelAnatomyCell, error) {
		cfg := sim.DefaultConfig()
		cfg.HTMModel = model
		cfg.Layout = layout
		m := sim.New(cfg)
		sys := tm.NewSystem(m, tm.TSX)
		const (
			threads = 8
			blocks  = 24
			rounds  = 30
		)
		arenas := make([][]sim.Addr, threads)
		for t := range arenas {
			arenas[t] = make([]sim.Addr, blocks)
			for b := range arenas[t] {
				arenas[t][b] = m.Mem.Alloc(sim.LineSize)
			}
		}
		hot := m.Mem.Alloc(sim.LineSize)
		footprints := []int{6, 15, blocks}
		res := m.Run(threads, func(c *sim.Context) {
			mine := arenas[c.ID()]
			for i := 0; i < rounds; i++ {
				fp := footprints[i%len(footprints)]
				sys.Atomic(c, func(tx tm.Tx) {
					for b := 0; b < fp; b++ {
						a := mine[b]
						tx.Store(a, tx.Load(a)+1)
					}
					tx.Store(hot, tx.Load(hot)+1)
				})
				c.Compute(200)
			}
		})
		st := &sys.HTM.Stats
		return modelAnatomyCell{
			Starts:    st.Starts,
			Commits:   st.Commits,
			Fallbacks: st.Fallback,
			Aborts:    st.Aborts,
			Cycles:    res.Cycles,
			Events:    res.Events,
		}, nil
	})
}

// ModelAnatomy renders the A7 study: the abort-cause anatomy of the same
// kernel under every HTM capacity/conflict model crossed with every
// allocator-placement layout. The table is the mechanism check for the whole
// model axis — each design must fail for its own structural reason (L1
// associativity vs fixed set caps vs victim-buffer overflow, requester-wins
// vs requester-loses conflict accounting), and the layout column shows
// placement alone moving capacity aborts for the cache-tracked designs while
// leaving the strict model untouched.
func (s *Suite) ModelAnatomy() (*harness.Table, error) {
	models := htm.ModelNames()
	layouts := sim.LayoutNames()
	futs := make([]runner.Future[modelAnatomyCell], 0, len(models)*len(layouts))
	for _, mo := range models {
		for _, la := range layouts {
			futs = append(futs, s.modelCell(mo, la))
		}
	}
	t := &harness.Table{
		Title: "Model anatomy — abort causes by HTM model x allocator layout @8T",
		Head:  []string{"model", "layout", "commits", "conflict", "capacity", "lock-busy", "spurious", "fallbacks"},
	}
	i := 0
	for _, mo := range models {
		for _, la := range layouts {
			r, err := futs[i].Wait()
			if err != nil {
				return nil, err
			}
			i++
			t.Rows = append(t.Rows, []string{
				mo, la,
				fmt.Sprintf("%d", r.Commits),
				fmt.Sprintf("%d", r.Aborts[htm.Conflict]),
				fmt.Sprintf("%d", r.Aborts[htm.Capacity]),
				fmt.Sprintf("%d", r.Aborts[htm.LockBusy]),
				fmt.Sprintf("%d", r.Aborts[htm.Spurious]),
				fmt.Sprintf("%d", r.Fallbacks),
			})
		}
	}
	return t, nil
}

// anatomyWorkloads are the contended STAMP workloads the abort-anatomy
// report dissects: the three whose Table 1 abort rates the paper singles out
// for perf-counter attribution.
var anatomyWorkloads = []string{"intruder", "kmeans", "vacation"}

// anatomyCell submits one probed STAMP cell. The probe layer is armed inside
// the cell regardless of the process-wide -metrics flag, and the snapshot
// rides inside the memoized (and persistently cached) result, so the report
// is byte-identical at any host parallelism and on warm-cache runs.
func (s *Suite) anatomyCell(name string, mo tm.Mode, th int) runner.Future[stamp.ProbedResult] {
	key := runner.Key(fmt.Sprintf("anatomy/%s/%s/%dT", name, mo, th))
	return runner.Submit(s.E, key, func() (stamp.ProbedResult, error) {
		return stamp.ExecuteProbed(name, mo, th)
	})
}

// AbortAnatomy renders the per-site abort anatomy of the contended STAMP
// workloads at 8 threads: the tsx abort-cause breakdown with fallback counts
// and mean attempts per region (the perf-counter analysis behind Table 1's
// rates), the TL2 validation-failure breakdown with global-version-clock
// pressure, and the virtual-time decomposition of where each engine's cycles
// go (Section 6's useful/wasted/serial split).
func (s *Suite) AbortAnatomy() (string, error) {
	const th = 8
	modes := []tm.Mode{tm.TSX, tm.TL2}
	futs := make(map[string]runner.Future[stamp.ProbedResult])
	for _, wl := range anatomyWorkloads {
		for _, mo := range modes {
			futs[wl+"/"+mo.String()] = s.anatomyCell(wl, mo, th)
		}
	}
	snaps := make(map[string]probe.Snapshot)
	for _, wl := range anatomyWorkloads {
		for _, mo := range modes {
			r, err := futs[wl+"/"+mo.String()].Wait()
			if err != nil {
				return "", err
			}
			snaps[wl+"/"+mo.String()] = r.Probes
		}
	}

	tsxT := &harness.Table{
		Title: fmt.Sprintf("Abort anatomy — tsx abort causes @%dT", th),
		Head: []string{"workload", "conflict", "capacity", "lock-busy",
			"syscall", "explicit", "spurious", "fallbacks", "tries/region"},
	}
	for _, wl := range anatomyWorkloads {
		sn := snaps[wl+"/tsx"]
		row := []string{wl}
		for _, cause := range []string{"conflict", "capacity", "lock-busy", "syscall", "explicit", "spurious"} {
			row = append(row, fmt.Sprintf("%d", sn.Counter("htm/abort/"+cause)))
		}
		row = append(row, fmt.Sprintf("%d", sn.Counter("tsx/site/global/fallbacks")))
		tries, _ := sn.Hist("tsx/site/global/attempts")
		row = append(row, fmt.Sprintf("%.2f", tries.Mean()))
		tsxT.Rows = append(tsxT.Rows, row)
	}

	tl2T := &harness.Table{
		Title: fmt.Sprintf("Abort anatomy — tl2 validation failures @%dT", th),
		Head: []string{"workload", "read-validate", "lock-busy",
			"commit-validate", "gv advances", "gv lag (mean)"},
	}
	for _, wl := range anatomyWorkloads {
		sn := snaps[wl+"/tl2"]
		lag, _ := sn.Hist("tl2/gv/lag")
		tl2T.Rows = append(tl2T.Rows, []string{
			wl,
			fmt.Sprintf("%d", sn.Counter("tl2/abort/read-validate")),
			fmt.Sprintf("%d", sn.Counter("tl2/abort/lock-busy")),
			fmt.Sprintf("%d", sn.Counter("tl2/abort/commit-validate")),
			fmt.Sprintf("%d", sn.Counter("tl2/gv/advances")),
			fmt.Sprintf("%.2f", lag.Mean()),
		})
	}

	vtT := &harness.Table{
		Title: fmt.Sprintf("Abort anatomy — virtual-time phases @%dT (%% of measured cycles)", th),
	}
	vtT.Head = []string{"cell"}
	for p := 0; p < sim.NumPhases; p++ {
		vtT.Head = append(vtT.Head, sim.Phase(p).String())
	}
	for _, wl := range anatomyWorkloads {
		for _, mo := range modes {
			sn := snaps[wl+"/"+mo.String()]
			var total uint64
			for p := 0; p < sim.NumPhases; p++ {
				total += sn.Counter(fmt.Sprintf("vt/%s/%s", mo, sim.Phase(p)))
			}
			row := []string{wl + "/" + mo.String()}
			for p := 0; p < sim.NumPhases; p++ {
				pct := 0.0
				if total > 0 {
					pct = 100 * float64(sn.Counter(fmt.Sprintf("vt/%s/%s", mo, sim.Phase(p)))) / float64(total)
				}
				row = append(row, fmt.Sprintf("%.1f", pct))
			}
			vtT.Rows = append(vtT.Rows, row)
		}
	}
	return tsxT.Render() + tl2T.Render() + vtT.Render(), nil
}
