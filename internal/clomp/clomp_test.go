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

func TestSchemeStrings(t *testing.T) {
	if Serial.String() != "Serial" || LargeTM.String() != "Large TM" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme should still render")
	}
}
