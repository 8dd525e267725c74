package netapps

import (
	"fmt"
	"testing"

	"tsxhpc/internal/core"
	"tsxhpc/internal/faults"
	"tsxhpc/internal/sim"
)

// TestScaleGoldens pins RunScale's simulated outcome — makespan, event
// count, bytes delivered and the last server read — for every A6 module at
// 16 cores / 2500 clients and at 64 cores, plus one cell under the chaos
// fault plan. Determinism tests only compare a binary against itself, so a
// schedule change under fault injection would otherwise pass unseen; these
// values pin the schedule itself, chaos included.
func TestScaleGoldens(t *testing.T) {
	cells := []struct {
		mod            string
		cores, clients int
		chaos          bool
		want           [4]uint64 // Cycles, Events, Bytes, ReadCycles
	}{
		{"global-lock", 16, 2500, false, [4]uint64{1591401, 359137, 3840000, 1591401}},
		{"fine-grained", 16, 2500, false, [4]uint64{1396798, 256148, 3840000, 1396798}},
		{"tl2", 16, 2500, false, [4]uint64{1461078, 305457, 3840000, 1461078}},
		{"tsx", 16, 2500, false, [4]uint64{1395730, 250608, 3840000, 1395730}},
		{"global-lock", 64, 1000, false, [4]uint64{6993172, 3879351, 4096000, 6993172}},
		{"fine-grained", 64, 1000, false, [4]uint64{365994, 243350, 4096000, 365994}},
		{"tl2", 64, 1000, false, [4]uint64{384139, 286752, 4096000, 384139}},
		{"tsx", 64, 1000, false, [4]uint64{363430, 236552, 4096000, 363430}},
		{"tsx", 16, 2500, true, [4]uint64{1443036, 254146, 3840000, 1443036}},
	}
	mods := map[string]ScaleModule{}
	for _, m := range ScaleModules {
		mods[m.Name] = m
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/%dC/%d", c.mod, c.cores, c.clients)
		if c.chaos {
			name += "/chaos"
		}
		t.Run(name, func(t *testing.T) {
			if c.chaos {
				sim.SetRunDefaults(sim.RunDefaults{Faults: faults.Chaos(1)})
				defer sim.SetRunDefaults(sim.RunDefaults{})
			}
			r, err := RunScale(c.cores, c.clients, mods[c.mod])
			if err != nil {
				t.Fatal(err)
			}
			if got := [4]uint64{r.Cycles, r.Events, r.Bytes, r.ReadCycles}; got != c.want {
				t.Errorf("(Cycles, Events, Bytes, ReadCycles) = %v, want %v", got, c.want)
			}
		})
	}
}

// TestFig6ChaosGoldens pins Run's simulated outcome (makespan and event
// count) for netferret under each eliding Figure 6 module with the chaos
// fault plan armed. Injected aborts drive the elided regions through every
// retry branch, lock-busy wait and fallback, and netferret's small
// request/response packets wait on and signal condition variables in
// nearly every region.
func TestFig6ChaosGoldens(t *testing.T) {
	cells := []struct {
		mode core.LockMode
		want [2]uint64 // Cycles, Events
	}{
		{core.ModeTSXAbort, [2]uint64{3254882, 488710}},
		{core.ModeTSXCond, [2]uint64{1869661, 75833}},
		{core.ModeTSXBusyWait, [2]uint64{1267955, 124034}},
	}
	sim.SetRunDefaults(sim.RunDefaults{Faults: faults.Chaos(1)})
	defer sim.SetRunDefaults(sim.RunDefaults{})
	for _, c := range cells {
		t.Run(c.mode.String(), func(t *testing.T) {
			r, err := Run("netferret", c.mode)
			if err != nil {
				t.Fatal(err)
			}
			if got := [2]uint64{r.Cycles, r.Events}; got != c.want {
				t.Errorf("(Cycles, Events) = %v, want %v", got, c.want)
			}
		})
	}
}
