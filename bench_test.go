package tsxhpc

// The benchmarks below regenerate the paper's tables and figures — one
// benchmark per artifact (DESIGN.md §3 maps each to its experiment id).
// Reported custom metrics are the figure's headline quantities, so a bench
// run doubles as a regression check on the reproduced shapes:
//
//	go test -bench=. -benchmem
//
// Simulated results are deterministic; wall-clock ns/op measures simulator
// throughput only. Every iteration builds a fresh experiments.Suite, so no
// iteration is served from a previous one's memo.

import (
	"testing"

	"tsxhpc/internal/clomp"
	"tsxhpc/internal/experiments"
	"tsxhpc/internal/harness"
	"tsxhpc/internal/htm"
	"tsxhpc/internal/netapps"
	"tsxhpc/internal/rmstm"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/stm"
	"tsxhpc/internal/tm"
)

// BenchmarkFigure1 regenerates the CLOMP-TM characterization (E1) and
// reports the Large TM vs Small Atomic crossover speedups at 4 scatters.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.NewSuite(0).Figure1()
		if err != nil {
			b.Fatal(err)
		}
		const at4 = 3 // XTicks 1, 2, 3, 4, ...
		b.ReportMetric(series(b, fig, clomp.LargeTM.String())[at4], "largeTM@4scatters-x")
		b.ReportMetric(series(b, fig, clomp.SmallAtomic.String())[at4], "smallAtomic@4scatters-x")
	}
}

// series returns the Y values of fig's series called name.
func series(b *testing.B, fig *harness.Figure, name string) []float64 {
	for _, s := range fig.Series {
		if s.Name == name {
			return s.Y
		}
	}
	b.Fatalf("%s has no series %q", fig.Title, name)
	return nil
}

// BenchmarkFigure2 regenerates the STAMP execution-time comparison (E2) and
// reports the geomean tsx-over-tl2 advantage at 4 threads.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, name := range stamp.Names() {
			tl2, err := stamp.Execute(name, tm.TL2, 4)
			if err != nil {
				b.Fatal(err)
			}
			tsx, err := stamp.Execute(name, tm.TSX, 4)
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, float64(tl2.Cycles)/float64(tsx.Cycles))
		}
		b.ReportMetric(harness.Geomean(ratios), "tsx-over-tl2@4T-x")
	}
}

// BenchmarkTable1 regenerates the STAMP abort rates (E3) and reports two
// sentinel cells: labyrinth tsx at 1T (capacity) and ssca2 tsx at 8T (~0).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab, err := stamp.Execute("labyrinth", tm.TSX, 1)
		if err != nil {
			b.Fatal(err)
		}
		ssca, err := stamp.Execute("ssca2", tm.TSX, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lab.AbortRate, "labyrinth-tsx1T-%")
		b.ReportMetric(ssca.AbortRate, "ssca2-tsx8T-%")
	}
}

// BenchmarkFigure3 regenerates the RMS-TM comparison (E4) and reports tsx
// vs fgl at 8 threads (geomean; the paper finds them comparable).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, name := range rmstm.Names() {
			fgl, err := rmstm.Execute(name, rmstm.FGL, 8, rmstm.DefaultLocks)
			if err != nil {
				b.Fatal(err)
			}
			tsx, err := rmstm.Execute(name, rmstm.TSXScheme, 8, rmstm.DefaultLocks)
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, float64(fgl.Cycles)/float64(tsx.Cycles))
		}
		b.ReportMetric(harness.Geomean(ratios), "tsx-over-fgl@8T-x")
	}
}

// BenchmarkFigure4 regenerates the real-world workload speedups (E5) and
// reports the tsx.coarsen-over-baseline geomean at 8 threads (paper: 1.41x).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, gain, err := experiments.NewSuite(0).Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gain, "coarsen-over-baseline@8T-x")
	}
}

// BenchmarkFigure5a regenerates the histogram conflict-free comparison (E6)
// and reports privatize-over-atomic time ratios at 1 and 8 threads.
func BenchmarkFigure5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.NewSuite(0).Figure5a()
		if err != nil {
			b.Fatal(err)
		}
		base, priv := fig.Series[0], fig.Series[1]
		b.ReportMetric(priv.Y[0]/base.Y[0], "privatize-over-atomic@1T-x")
		b.ReportMetric(priv.Y[3]/base.Y[3], "privatize-over-atomic@8T-x")
	}
}

// BenchmarkFigure5b regenerates the physicsSolver comparison (E7) and
// reports barrier-over-mutex time ratios at 1 and 8 threads.
func BenchmarkFigure5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.NewSuite(0).Figure5b()
		if err != nil {
			b.Fatal(err)
		}
		base, bar := fig.Series[0], fig.Series[1]
		b.ReportMetric(bar.Y[0]/base.Y[0], "barrier-over-mutex@1T-x")
		b.ReportMetric(bar.Y[3]/base.Y[3], "barrier-over-mutex@8T-x")
	}
}

// BenchmarkFigure6 regenerates the TCP/IP stack study (E8) and reports the
// tsx.busywait average bandwidth gain (paper: 1.31x).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, gain, err := experiments.NewSuite(0).Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gain, "tsx.busywait-gain-x")
	}
}

// BenchmarkRetryPolicy regenerates the Section 3 retry sweep (E9) and
// reports the cycles at budgets 1 and 5.
func BenchmarkRetryPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.NewSuite(0).RetrySweep([]int{1, 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Series[0].Y[0], "retry1-kcycles")
		b.ReportMetric(fig.Series[0].Y[1], "retry5-kcycles")
	}
}

// BenchmarkNetferretModes reports per-mode bandwidth for the
// condvar-sensitive workload, the Figure 6 row of greatest interest.
func BenchmarkNetferretModes(b *testing.B) {
	for _, mode := range netapps.Modes {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := netapps.Run("netferret", mode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Bandwidth(), "bytes/kcycle")
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures host-level simulator speed:
// simulated timed events per wall-clock second on a contended HTM workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		m := sim.New(sim.DefaultConfig())
		sys := tm.NewSystem(m, tm.TSX)
		arr := m.Mem.AllocLine(8 * 1024)
		res := m.Run(8, func(c *sim.Context) {
			for k := 0; k < 2000; k++ {
				a := arr + sim.Addr(c.Rand.Intn(1024)*8)
				sys.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		})
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkL1Lookup measures the innermost simulator primitive — a warm,
// hitting L1 load — the cost floor under every instrumented access.
func BenchmarkL1Lookup(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	arr := m.Mem.AllocLine(8 * 32)
	b.ResetTimer()
	m.Run(1, func(c *sim.Context) {
		for i := 0; i < 32; i++ {
			c.Load(arr + sim.Addr(i*8)) // warm the set
		}
		for i := 0; i < b.N; i++ {
			c.Load(arr + sim.Addr((i%32)*8))
		}
	})
}

// BenchmarkHTMBeginCommit measures the raw speculation path — Begin, one
// Store, Commit on the htm runtime directly, no elision wrapper or fallback
// policy above it.
func BenchmarkHTMBeginCommit(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	r := htm.New(m)
	a := m.Mem.AllocLine(8)
	b.ResetTimer()
	m.Run(1, func(c *sim.Context) {
		for i := 0; i < b.N; i++ {
			tx := r.Begin(c)
			tx.Store(a, uint64(i))
			tx.Commit()
		}
	})
}

// BenchmarkTL2Commit measures an uncontended TL2 writer transaction end to
// end: instrumented read, buffered write, commit-time locking, validation,
// and write-back.
func BenchmarkTL2Commit(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	s := stm.New(m)
	a := m.Mem.AllocLine(8)
	b.ResetTimer()
	m.Run(1, func(c *sim.Context) {
		for i := 0; i < b.N; i++ {
			s.Run(c, func(tx *stm.Txn) { tx.Store(a, tx.Load(a)+1) })
		}
	})
}

// BenchmarkHTMOps measures the hot path of the TSX emulation itself:
// a small committed transaction per iteration.
func BenchmarkHTMOps(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	sys := tm.NewSystem(m, tm.TSX)
	arr := m.Mem.AllocLine(8 * 64)
	b.ResetTimer()
	m.Run(1, func(c *sim.Context) {
		for i := 0; i < b.N; i++ {
			a := arr + sim.Addr((i%64)*8)
			sys.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
		}
	})
}
