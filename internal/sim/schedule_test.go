package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
)

// Schedule goldens: every charge the engine makes is folded into a hash
// through the TickHook, one record per charge of (thread id, clock before
// the charge, requested cycles, whether the HyperThread sibling is
// consuming the core). Which thread charges what, at which virtual time and
// under which sibling state is the whole simulated schedule, so a hash that
// stays put proves an engine change moved no result anywhere, not just in
// the final makespan. The hook also injects seeded jitter the way fault
// injection does: the jitter stream is drawn in charge order, so any
// reordering of charges compounds into different clocks.
//
// The pinned values were taken before Compute quanta were charged in
// place; they hold on every coroutine backend (CI runs this file under
// -race and -tags nocorolink, both on the iter.Pull slot).

// scheduleRegion is one workload the goldens pin. Its body makes its timed
// calls through tr, which records each thread's clock after every call when
// non-nil (the no-hook goldens) and records nothing when nil.
type scheduleRegion struct {
	name string
	body func(m *Machine, tr *opTrace) func(*Context)
}

// opTrace folds (thread id, Now()) into a hash after every Compute, Load,
// Store, RMW, Block and Wake a region makes. The regions run one thread at a
// time, so the hash pins the order of those returns as well as the clocks.
// A nil *opTrace passes the calls through unrecorded.
type opTrace struct {
	h   hash.Hash64
	buf [16]byte
}

func newOpTrace() *opTrace { return &opTrace{h: fnv.New64a()} }

func (t *opTrace) note(c *Context) {
	if t == nil {
		return
	}
	binary.LittleEndian.PutUint64(t.buf[:8], uint64(c.ID()))
	binary.LittleEndian.PutUint64(t.buf[8:], c.Now())
	t.h.Write(t.buf[:])
}

func (t *opTrace) compute(c *Context, cyc uint64) { c.Compute(cyc); t.note(c) }

func (t *opTrace) load(c *Context, a Addr) uint64 {
	v := c.Load(a)
	t.note(c)
	return v
}

func (t *opTrace) store(c *Context, a Addr, v uint64) { c.Store(a, v); t.note(c) }

func (t *opTrace) rmw(c *Context, a Addr, f func(uint64) uint64) uint64 {
	old, _ := c.RMW(a, f)
	t.note(c)
	return old
}

func (t *opTrace) block(c *Context) { c.Block(); t.note(c) }

func (t *opTrace) wake(c, target *Context, at uint64) { c.Wake(target, at); t.note(c) }

// computeHeavy: multi-quantum Compute of seeded length, with a private
// load now and then, so queued threads often sit between quanta when the
// core changes hands. HT sibling pairs charge under each other's state.
// Odd calls are attributed to PhaseTxn, so the phase planes split.
func computeHeavy(m *Machine, tr *opTrace) func(*Context) {
	priv := m.Mem.AllocLine(64 * LineSize)
	return func(c *Context) {
		for i := 0; i < 60; i++ {
			prev := c.SetPhase(Phase(i % 2))
			tr.compute(c, uint64(c.Rand.Int63n(1200)))
			c.SetPhase(prev)
			if i%7 == 0 {
				tr.load(c, priv+Addr(c.ID()%64)*LineSize)
			}
		}
	}
}

// blockWakeConvoy: a lock handed from releaser to the longest waiter by
// Block/Wake, with multi-quantum work inside and outside the critical
// section, so hand-offs happen at Block and finish while others have
// quanta pending.
// The critical section is PhaseSerial.
func blockWakeConvoy(m *Machine, tr *opTrace) func(*Context) {
	counter := m.Mem.AllocLine(8)
	held := false
	var waiters []*Context
	return func(c *Context) {
		for r := 0; r < 12; r++ {
			if held {
				waiters = append(waiters, c)
				tr.block(c)
			} else {
				held = true
			}
			prev := c.SetPhase(PhaseSerial)
			tr.store(c, counter, tr.load(c, counter)+1)
			tr.compute(c, uint64(c.Rand.Int63n(500)))
			c.SetPhase(prev)
			if len(waiters) > 0 {
				next := waiters[0]
				waiters = waiters[1:]
				tr.wake(c, next, c.Now())
			} else {
				held = false
			}
			tr.compute(c, uint64(c.Rand.Int63n(900)))
		}
	}
}

// contendedLock: a test-and-set spin lock on one shared word, with a
// multi-quantum critical section and seeded backoff between attempts.
// Acquisition is PhaseSpin and the critical section PhaseSerial.
func contendedLock(m *Machine, tr *opTrace) func(*Context) {
	lock := m.Mem.AllocLine(8)
	data := m.Mem.AllocLine(8)
	return func(c *Context) {
		for r := 0; r < 10; r++ {
			prev := c.SetPhase(PhaseSpin)
			for tr.rmw(c, lock, func(uint64) uint64 { return 1 }) != 0 {
				tr.compute(c, uint64(1+c.Rand.Int63n(300)))
			}
			c.SetPhase(PhaseSerial)
			tr.store(c, data, tr.load(c, data)+1)
			tr.compute(c, uint64(c.Rand.Int63n(700)))
			tr.store(c, lock, 0)
			c.SetPhase(prev)
			tr.compute(c, uint64(c.Rand.Int63n(400)))
		}
	}
}

var scheduleRegions = []scheduleRegion{
	{"compute", computeHeavy},
	{"convoy", blockWakeConvoy},
	{"lock", contendedLock},
}

// scheduleTopologies: 2, 5 and 8 threads on the paper machine (5 leaves
// one HT pair half-filled), and 16 threads on two 4-core sockets.
var scheduleTopologies = []struct {
	threads, sockets int
}{{2, 1}, {5, 1}, {8, 1}, {16, 2}}

// scheduleTrace runs one region with every charge recorded and returns the
// schedule hash, the number of charges and the region's result.
func scheduleTrace(r scheduleRegion, threads, sockets int) (uint64, int, Result) {
	cfg := Config{Sockets: sockets, Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1}
	m := New(cfg)
	h := fnv.New64a()
	jitter := rand.New(rand.NewSource(99))
	charges := 0
	var rec [4]uint64
	buf := make([]byte, 8*len(rec))
	m.TickHook = func(c *Context, cyc uint64) uint64 {
		busy := uint64(0)
		if s := c.sibling; s != nil && s.consumesCore() {
			busy = 1
		}
		rec = [4]uint64{uint64(c.id), c.clock, cyc, busy}
		for i, v := range rec {
			for b := 0; b < 8; b++ {
				buf[8*i+b] = byte(v >> (8 * b))
			}
		}
		h.Write(buf)
		charges++
		if jitter.Intn(16) == 0 {
			return uint64(1 + jitter.Intn(40))
		}
		return 0
	}
	res := m.Run(threads, r.body(m, nil))
	return h.Sum64(), charges, res
}

func TestScheduleGoldens(t *testing.T) {
	want := map[string]string{
		"compute/2":  "0426130548b38594 charges=532 cycles=36894 events=532",
		"compute/5":  "f6cfac305c4f66f7 charges=1365 cycles=59273 events=1365",
		"compute/8":  "e8748b13a3993ba6 charges=2118 cycles=63045 events=2118",
		"compute/16": "ceb8413646a64c1a charges=4322 cycles=66250 events=4322",
		"convoy/2":   "feaa77c488441fd4 charges=160 cycles=9781 events=160",
		"convoy/5":   "6dd03f0dd25ca11f charges=419 cycles=21477 events=419",
		"convoy/8":   "f25d3acb90a1d662 charges=661 cycles=33210 events=661",
		"convoy/16":  "f471fd4eb44b4939 charges=1363 cycles=74507 events=1363",
		"lock/2":     "5797e9f0bbe29803 charges=272 cycles=10613 events=272",
		"lock/5":     "d937370a5d06cfcf charges=1465 cycles=30230 events=1465",
		"lock/8":     "93c1852bebfae06f charges=3487 cycles=61071 events=3487",
		"lock/16":    "81e084f2e183f25c charges=12340 cycles=143012 events=12340",
	}
	for _, r := range scheduleRegions {
		for _, tp := range scheduleTopologies {
			name := fmt.Sprintf("%s/%d", r.name, tp.threads)
			t.Run(name, func(t *testing.T) {
				sum, charges, res := scheduleTrace(r, tp.threads, tp.sockets)
				got := fmt.Sprintf("%016x charges=%d cycles=%d events=%d", sum, charges, res.Cycles, res.Events)
				if got != want[name] {
					t.Errorf("schedule moved:\n got %s\nwant %s", got, want[name])
				}
			})
		}
	}
}

// No-hook schedule goldens. The TickHook goldens above observe every
// charge, so they run the engine in its one-quantum mode; these run with
// no hook and no deadline, the production configuration, and observe the
// schedule through what the threads themselves see: each thread's clock
// after every timed call returns (opTrace), each thread's finishing clock
// and the event count. A second run with Metrics armed must leave that
// trace unchanged and pins the per-thread, per-phase cycle split.
//
// The pinned values were taken before a queued thread's pending Compute
// quanta were charged as one span.

// noHookTopology is a machine shape and a thread count. ThreadsPerCore 4
// chains the sibling pointers (t0↔t4→t8→t12↔t8 on core 0), so one thread's
// state change can reach a sibling on either side.
type noHookTopology struct {
	cores, threadsPerCore, threads int
}

func (tp noHookTopology) String() string {
	return fmt.Sprintf("%dCx%dHT/%d", tp.cores, tp.threadsPerCore, tp.threads)
}

var noHookTopologies = []noHookTopology{
	{4, 2, 2}, {4, 2, 5}, {4, 2, 8},
	{8, 2, 3}, {8, 2, 10}, {8, 2, 16},
	{4, 4, 6}, {4, 4, 11}, {4, 4, 16},
}

// noHookConfig is the machine tp describes, with probes armed if metrics.
func noHookConfig(tp noHookTopology, metrics bool) Config {
	return Config{Cores: tp.cores, ThreadsPerCore: tp.threadsPerCore, Costs: DefaultCosts(), Seed: 1, Metrics: metrics, Label: "schedule"}
}

// opTraceRun runs region r on m and renders its opTrace hash, event count,
// makespan and a hash of the per-thread finishing clocks.
func opTraceRun(m *Machine, r scheduleRegion, threads int) string {
	tr := newOpTrace()
	res := m.Run(threads, r.body(m, tr))
	per := fnv.New64a()
	for _, clk := range res.PerThread {
		per.Write(binary.LittleEndian.AppendUint64(nil, clk))
	}
	return fmt.Sprintf("%016x events=%d cycles=%d threads=%016x", tr.h.Sum64(), res.Events, res.Cycles, per.Sum64())
}

// phaseHash hashes every thread's per-phase cycle totals after a region.
func phaseHash(m *Machine, threads int) string {
	h := fnv.New64a()
	for _, c := range m.ctxs[:threads] {
		for p := 0; p < NumPhases; p++ {
			h.Write(binary.LittleEndian.AppendUint64(nil, c.PhaseCycles(Phase(p))))
		}
	}
	return fmt.Sprintf("phases=%016x", h.Sum64())
}

func TestScheduleGoldensNoHook(t *testing.T) {
	want := map[string]string{
		"compute/4Cx2HT/2":  "72edaf5a67789210 events=532 cycles=36590 threads=bc16a03444ac76bc phases=6fc3bd56dfa334b2",
		"compute/4Cx2HT/5":  "57193c6a3d710d60 events=1365 cycles=58706 threads=7620222cab3aaaf9 phases=0777d5b9cda038f7",
		"compute/4Cx2HT/8":  "b16d731d69adcf2c events=2118 cycles=62354 threads=68ac0147bc72eafc phases=50547e5eb01de746",
		"compute/8Cx2HT/3":  "adad00c727ccd748 events=797 cycles=36590 threads=e8fad6fcb3106337 phases=8ffefaf460e5fb0d",
		"compute/8Cx2HT/10": "fddaefe907e0a29e events=2650 cycles=59879 threads=e9e07156b0aead54 phases=1dc687030a864bfa",
		"compute/8Cx2HT/16": "46fbc162b7875a7e events=4322 cycles=65648 threads=460c8907c6c71002 phases=6766e332bcc18c15",
		"compute/4Cx4HT/6":  "23b0f614a5382c3a events=1628 cycles=58706 threads=b5bd83be90f98ddc phases=6d6d36c2ef65ef45",
		"compute/4Cx4HT/11": "67cb230d5c159d90 events=2937 cycles=62354 threads=3de4e3e5fe9d29b8 phases=ca2242c64c816629",
		"compute/4Cx4HT/16": "abe49042e699f4ce events=4322 cycles=67191 threads=da40809b4cb960fb phases=6e6f2f679cb9e36b",
		"convoy/4Cx2HT/2":   "0e6732a55b08d560 events=160 cycles=9721 threads=273c628d1bdeb468 phases=a99d7aab2b5ace47",
		"convoy/4Cx2HT/5":   "e41393cd18db32d8 events=419 cycles=21245 threads=8f0005ab6dd8392d phases=bec4d0127adffc23",
		"convoy/4Cx2HT/8":   "090fb4bcdc655b07 events=661 cycles=32679 threads=08ec157ba225d247 phases=20d20474694f01d0",
		"convoy/8Cx2HT/3":   "a20c5434109539b1 events=248 cycles=13300 threads=c8b1f0ab57ce084d phases=50b9fb63ac407ec9",
		"convoy/8Cx2HT/10":  "ef71cd69fd9be173 events=844 cycles=39692 threads=d15bc0a4933f5853 phases=77c5d08f2e477a14",
		"convoy/8Cx2HT/16":  "6a3683ccea226306 events=1363 cycles=63138 threads=d78f44181f707c20 phases=897614a2483c43b0",
		"convoy/4Cx4HT/6":   "515e047d24d1a56d events=499 cycles=24300 threads=5cd679a1362d92bf phases=26f1f6113196ad23",
		"convoy/4Cx4HT/11":  "ab1255fbbcdfc282 events=928 cycles=44555 threads=924ed3d3eca93c3a phases=fa47716058044bd3",
		"convoy/4Cx4HT/16":  "930c0fb4324caa65 events=1363 cycles=62449 threads=b5351f2d21feb368 phases=73beaa149723a8dc",
		"lock/4Cx2HT/2":     "a2c18194fb388bca events=274 cycles=10232 threads=f1cb10c9896a3eb3 phases=c09eb9389a930504",
		"lock/4Cx2HT/5":     "764995b45d3da0d8 events=1194 cycles=28308 threads=18bfae2797a1d687 phases=08705a8b3f21c5a3",
		"lock/4Cx2HT/8":     "32cc889263b45403 events=3751 cycles=61731 threads=565209e3df0c65e1 phases=d1d45b47ad81334c",
		"lock/8Cx2HT/3":     "16f863229b375bd4 events=584 cycles=15799 threads=69ab3cd927278478 phases=8c8c9bd3a595cc49",
		"lock/8Cx2HT/10":    "1cb683cbfc295d0d events=5439 cycles=61061 threads=37563e03178769a8 phases=aeddad709b4e3f86",
		"lock/8Cx2HT/16":    "6e81ffcfe7c6e55e events=12989 cycles=118537 threads=806e965bf04e0218 phases=9de9aa9ed2931e4a",
		"lock/4Cx4HT/6":     "859ce49271436c44 events=1986 cycles=42696 threads=9a6dce946c45a55d phases=eb2ade5fbcc0e81e",
		"lock/4Cx4HT/11":    "f1ca0e29fd913778 events=5721 cycles=75169 threads=fc4257ecff210ba6 phases=7e4287787f4d7728",
		"lock/4Cx4HT/16":    "89c34b6da11a53e4 events=13170 cycles=114439 threads=8f201c1243deb518 phases=82b639b85f335f46",
	}
	for _, r := range scheduleRegions {
		for _, tp := range noHookTopologies {
			name := r.name + "/" + tp.String()
			t.Run(name, func(t *testing.T) {
				got := opTraceRun(New(noHookConfig(tp, false)), r, tp.threads)
				mm := New(noHookConfig(tp, true))
				if withMetrics := opTraceRun(mm, r, tp.threads); withMetrics != got {
					t.Errorf("arming Metrics moved the schedule:\n got %s\nwant %s", withMetrics, got)
				}
				got += " " + phaseHash(mm, tp.threads)
				if got != want[name] {
					t.Errorf("schedule moved:\n got %s\nwant %s", got, want[name])
				}
			})
		}
	}
}

// oneQuantumVariants force the engine's one-quantum mode, in which every
// Compute quantum of a queued thread is its own charge: a TickHook that adds
// nothing, and a cycle budget far beyond any region's makespan.
var oneQuantumVariants = []struct {
	name  string
	apply func(m *Machine)
}{
	{"zero tick hook", func(m *Machine) { m.TickHook = func(*Context, uint64) uint64 { return 0 } }},
	{"armed deadline", func(m *Machine) { m.Cfg.MaxCycles = 1 << 50 }},
}

// TestScheduleOneQuantumDifferential: every region and topology of the
// no-hook goldens gives the same trace in one-quantum mode, with and
// without probes, also under a HyperThread factor that scales a full
// quantum to a fraction (160·13/7), so a span must floor each quantum on
// its own.
func TestScheduleOneQuantumDifferential(t *testing.T) {
	oddHT := func(m *Machine) { m.Costs.HTFactorNum, m.Costs.HTFactorDen = 13, 7 }
	for _, r := range scheduleRegions {
		for _, tp := range noHookTopologies {
			t.Run(r.name+"/"+tp.String(), func(t *testing.T) {
				for _, metrics := range []bool{false, true} {
					for _, costs := range []func(*Machine){func(*Machine) {}, oddHT} {
						base := New(noHookConfig(tp, metrics))
						costs(base)
						want := opTraceRun(base, r, tp.threads)
						for _, v := range oneQuantumVariants {
							m := New(noHookConfig(tp, metrics))
							costs(m)
							v.apply(m)
							got := opTraceRun(m, r, tp.threads)
							if metrics {
								got += " " + phaseHash(m, tp.threads)
								want2 := want + " " + phaseHash(base, tp.threads)
								if got != want2 {
									t.Errorf("%s, metrics: got %s\nwant %s", v.name, got, want2)
								}
							} else if got != want {
								t.Errorf("%s: got %s\nwant %s", v.name, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// stallAmidCompute: t0 raises a typed stall with Context.NewStall from its
// own code while every other live thread is partway through a long Compute.
// Before that, t0 wakes t1 (which blocked at once) and t2 finishes, so the
// HyperThread siblings of t1 and t2 change charging rate mid-Compute.
func stallAmidCompute(m *Machine) func(*Context) {
	line := m.Mem.AllocLine(8)
	return func(c *Context) {
		switch c.ID() {
		case 0:
			woke := false
			for c.Now() < 25_000 {
				c.Compute(90)
				c.Load(line)
				if !woke && c.Now() >= 7_000 {
					c.Wake(m.ctxs[1], c.Now())
					woke = true
				}
			}
			panic(c.NewStall(StallLivelock, 0))
		case 1:
			c.Block()
		case 2:
			for c.Now() < 11_000 {
				c.Compute(uint64(300 + c.Rand.Int63n(2000)))
			}
			return
		}
		for {
			c.Compute(uint64(500 + c.Rand.Int63n(3000)))
		}
	}
}

// TestStallDumpAmidCompute: the stall dump taken while siblings sit between
// Compute quanta names the clocks the one-quantum engine reaches, so it
// matches the one-quantum variants and the pinned dump.
func TestStallDumpAmidCompute(t *testing.T) {
	want := map[string]string{
		"4Cx2HT/8":  "sim: livelock — no global progress within 0 virtual cycles (last running t0)\nt0(core 0): state=runnable clock=25122 intxn=false\nt1(core 1): state=runnable clock=25225 intxn=false\nt2(core 2): state=done clock=13970 intxn=false\nt3(core 3): state=runnable clock=25309 intxn=false\nt4(core 0): state=runnable clock=25140 intxn=false\nt5(core 1): state=runnable clock=25272 intxn=false\nt6(core 2): state=runnable clock=25235 intxn=false\nt7(core 3): state=runnable clock=25340 intxn=false",
		"4Cx4HT/16": "sim: livelock — no global progress within 0 virtual cycles (last running t0)\nt0(core 0): state=runnable clock=25122 intxn=false\nt1(core 1): state=runnable clock=25225 intxn=false\nt2(core 2): state=done clock=13970 intxn=false\nt3(core 3): state=runnable clock=25309 intxn=false\nt4(core 0): state=runnable clock=25140 intxn=false\nt5(core 1): state=runnable clock=25219 intxn=false\nt6(core 2): state=runnable clock=25268 intxn=false\nt7(core 3): state=runnable clock=25340 intxn=false\nt8(core 0): state=runnable clock=25174 intxn=false\nt9(core 1): state=runnable clock=25277 intxn=false\nt10(core 2): state=runnable clock=25185 intxn=false\nt11(core 3): state=runnable clock=25286 intxn=false\nt12(core 0): state=runnable clock=25377 intxn=false\nt13(core 1): state=runnable clock=25336 intxn=false\nt14(core 2): state=runnable clock=25147 intxn=false\nt15(core 3): state=runnable clock=25374 intxn=false",
	}
	for _, tp := range []noHookTopology{{4, 2, 8}, {4, 4, 16}} {
		t.Run(tp.String(), func(t *testing.T) {
			dump := func(apply func(*Machine)) string {
				m := New(noHookConfig(tp, false))
				if apply != nil {
					apply(m)
				}
				_, err := m.RunE(tp.threads, stallAmidCompute(m))
				var se *StallError
				if !errors.As(err, &se) {
					t.Fatalf("err = %v, want *StallError", err)
				}
				return se.Error()
			}
			got := dump(nil)
			if got != want[tp.String()] {
				t.Errorf("stall dump moved:\n got %s\nwant %s", got, want[tp.String()])
			}
			for _, v := range oneQuantumVariants {
				if one := dump(v.apply); one != got {
					t.Errorf("%s: got %s\nwant %s", v.name, one, got)
				}
			}
		})
	}
}
