package ssync

import (
	"testing"

	"tsxhpc/internal/sim"
)

// BenchmarkMutexSpin: eight contexts on 4 cores × 2 HyperThreads take one
// Mutex in turn around a short critical section, so the waiters spend
// nearly all their time in the lock's CAS spin and never exhaust it. One op
// is one acquisition; ns/event divides the host time by the simulated
// events.
func BenchmarkMutexSpin(b *testing.B) {
	m := sim.New(sim.Config{Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1})
	l := NewMutex(m.Mem)
	data := m.Mem.AllocLine(8)
	per := b.N/8 + 1
	b.ReportAllocs()
	b.ResetTimer()
	res := m.Run(8, func(c *sim.Context) {
		for i := 0; i < per; i++ {
			l.Lock(c)
			c.Store(data, c.Load(data)+1)
			c.Compute(50)
			l.Unlock(c)
			c.Compute(100)
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.Events), "ns/event")
}
