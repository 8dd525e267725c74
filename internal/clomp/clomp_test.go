package clomp

import (
	"testing"

	"tsxhpc/internal/sim"
)

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.ZonesPerPartition = 48
	cfg.Rounds = 1
	return cfg
}

func machHTOff() *sim.Machine {
	mc := sim.DefaultConfig()
	mc.DisableHT = true
	return sim.New(mc)
}

func TestAllSchemesComputeSameResult(t *testing.T) {
	cfg := smallCfg()
	cfg.Scatters = 3
	var want uint64
	for i, s := range append([]Scheme{Serial}, Schemes...) {
		m := machHTOff()
		mesh := NewMesh(m, cfg)
		exp := mesh.ExpectedSum()
		Run(m, mesh, s, 4)
		got := mesh.CheckSum()
		if got != exp {
			t.Fatalf("%v: checksum = %d, want %d", s, got, exp)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("%v: checksum %d differs from serial %d", s, got, want)
		}
	}
}

func TestContendedWiringStillCorrect(t *testing.T) {
	cfg := smallCfg()
	cfg.Scatters = 4
	cfg.CrossPartitionPct = 50
	for _, s := range []Scheme{SmallAtomic, SmallTM, LargeTM, SmallCritical} {
		m := machHTOff()
		mesh := NewMesh(m, cfg)
		Run(m, mesh, s, 4)
		if got, exp := mesh.CheckSum(), mesh.ExpectedSum(); got != exp {
			t.Fatalf("%v with cross-partition wiring: checksum %d, want %d", s, got, exp)
		}
	}
}

func TestContentionCausesAborts(t *testing.T) {
	cfg := smallCfg()
	cfg.Scatters = 6
	cfg.CrossPartitionPct = 80
	m := machHTOff()
	mesh := NewMesh(m, cfg)
	r := Run(m, mesh, LargeTM, 4)
	if r.AbortRate <= 0 {
		t.Fatal("expected aborts with heavy cross-partition wiring")
	}
}

func TestNoContentionMeansFewAborts(t *testing.T) {
	cfg := smallCfg()
	cfg.Scatters = 4
	m := machHTOff()
	mesh := NewMesh(m, cfg)
	r := Run(m, mesh, LargeTM, 4)
	if r.AbortRate > 2 {
		t.Fatalf("abort rate %.1f%% with partition-private wiring, want ~0", r.AbortRate)
	}
}

// speedups runs every scheme at the given thread count on a fresh HT-off
// machine per scatter count and returns its speedup over the serial
// reference, indexed [scheme][scatterIdx].
func speedups(cfg Config, scatterCounts []int, threads int) map[Scheme][]float64 {
	out := make(map[Scheme][]float64)
	for _, sc := range scatterCounts {
		c := cfg
		c.Scatters = sc
		run := func(s Scheme, th int) uint64 {
			m := machHTOff()
			return Run(m, NewMesh(m, c), s, th).Cycles
		}
		ref := run(Serial, 1)
		for _, s := range Schemes {
			out[s] = append(out[s], float64(ref)/float64(run(s, threads)))
		}
	}
	return out
}

// TestFigure1Shape pins the published qualitative result: at one scatter the
// atomic version wins and TM is moderately behind, the lock version is far
// behind; batching 3-4 scatters lets Large TM overtake Small Atomic while
// Large Critical stays contention-bound.
func TestFigure1Shape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ZonesPerPartition = 96
	res := speedups(cfg, []int{1, 4}, 4)
	at1 := func(s Scheme) float64 { return res[s][0] }
	at4 := func(s Scheme) float64 { return res[s][1] }

	if !(at1(SmallAtomic) > at1(SmallTM)) {
		t.Errorf("at 1 scatter: SmallAtomic (%.2f) should beat SmallTM (%.2f)", at1(SmallAtomic), at1(SmallTM))
	}
	if !(at1(SmallTM) > 2*at1(SmallCritical)) {
		t.Errorf("at 1 scatter: SmallTM (%.2f) should far exceed SmallCritical (%.2f)", at1(SmallTM), at1(SmallCritical))
	}
	if !(at4(LargeTM) > at4(SmallAtomic)) {
		t.Errorf("at 4 scatters: LargeTM (%.2f) should overtake SmallAtomic (%.2f)", at4(LargeTM), at4(SmallAtomic))
	}
	if !(at4(LargeCritical) < 1) {
		t.Errorf("LargeCritical (%.2f) should stay below serial", at4(LargeCritical))
	}
}

func TestSchemeStrings(t *testing.T) {
	if Serial.String() != "Serial" || LargeTM.String() != "Large TM" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme should still render")
	}
}
