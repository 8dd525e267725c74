package sim

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// onBothBackends runs work once on the runtime-coroutine slot and once on
// the iter.Pull slot, forcing the latter through setCoroDegraded as a failed
// discovery or self-test does at init (it also points the switch thunk at
// the iter.Pull slot; flipping only the flag would mix the backends).
// Results must be identical field for field: the backend changes host-side
// switch cost only. Not parallel-safe: it flips the process-wide backend,
// so no other machine may be mid-region (sim's tests do not use
// t.Parallel). Skips where the process has only the iter.Pull slot (race,
// nocorolink, non-amd64, or degraded at init), since there is nothing to
// compare.
func onBothBackends[T any](t *testing.T, work func() T) (fast, pull T) {
	t.Helper()
	if !coroFastBuild || coroDegraded {
		t.Skip("only the iter.Pull backend is available in this process")
	}
	fast = work()
	setCoroDegraded(true)
	defer setCoroDegraded(false)
	return fast, work()
}

// degradedWorkload is a switch-heavy region: shared-line traffic plus seeded
// compute keeps the scheduler interleaving all eight contexts, so every stack
// switch goes through whichever coroutine backend is live.
func degradedWorkload(m *Machine) Result {
	a := m.Mem.AllocLine(8)
	return m.Run(8, func(c *Context) {
		for i := 0; i < 100; i++ {
			v := c.Load(a)
			c.Store(a, v+1)
			c.Compute(uint64(c.Rand.Int63n(40)))
		}
	})
}

// TestDegradedBackendIdenticalResults is the graceful-degradation contract
// on a plain switch-heavy region, and checks the backend report follows the
// flip.
func TestDegradedBackendIdenticalResults(t *testing.T) {
	var during string
	fast, pull := onBothBackends(t, func() Result {
		during = SchedulerBackend()
		return degradedWorkload(New(DefaultConfig()))
	})
	if !reflect.DeepEqual(fast, pull) {
		t.Fatalf("degraded scheduler changed simulated results:\nfast: %+v\npull: %+v", fast, pull)
	}
	if during != "iter-pull" {
		t.Fatalf("SchedulerBackend() = %q while degraded, want \"iter-pull\"", during)
	}
}

// convoyOutcome is what a Block/Wake convoy leaves behind.
type convoyOutcome struct {
	Res     Result
	Counter uint64
	Blocks  int
}

// TestBackendsAgreeOnBlockWakeConvoy drives contexts through a lock
// handoff convoy: every release wakes the longest waiter directly, so most
// switches are Block parks and Wake-driven resumptions spread across every
// carrier's slot — the pattern that exercises the iter.Pull slot's
// next/yield parity on slots other parties keep re-entering. The
// compute-heavy case packs 16 contexts onto 8 HT cores and draws work
// spanning many Compute quanta, so queued threads' quanta are charged by
// whichever context hands the core over.
func TestBackendsAgreeOnBlockWakeConvoy(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		threads, rounds         int
		sockets, cores          int
		insideWork, outsideWork int64
	}{
		{"short", 64, 20, 2, 16, 50, 200},
		{"compute-heavy-ht", 16, 20, 1, 8, 600, 2500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, pull := onBothBackends(t, func() convoyOutcome {
				cfg := DefaultConfig()
				cfg.Sockets, cfg.Cores, cfg.ThreadsPerCore = tc.sockets, tc.cores, 2
				m := New(cfg)
				counter := m.Mem.AllocLine(8)
				held, blocks := false, 0
				var waiters []*Context
				res := m.Run(tc.threads, func(c *Context) {
					for r := 0; r < tc.rounds; r++ {
						if held {
							waiters = append(waiters, c)
							blocks++
							c.Block() // woken by the releaser: the lock is handed over
						} else {
							held = true
						}
						c.Store(counter, c.Load(counter)+1)
						c.Compute(uint64(c.Rand.Int63n(tc.insideWork)))
						if len(waiters) > 0 {
							next := waiters[0]
							waiters = waiters[1:]
							c.Wake(next, c.Now())
						} else {
							held = false
						}
						c.Compute(uint64(c.Rand.Int63n(tc.outsideWork)))
					}
				})
				return convoyOutcome{res, m.Mem.ReadRaw(counter), blocks}
			})
			if !reflect.DeepEqual(fast, pull) {
				t.Fatalf("backends disagree on the convoy:\nfast: %+v\npull: %+v", fast, pull)
			}
			if want := uint64(tc.threads * tc.rounds); fast.Counter != want {
				t.Fatalf("counter = %d, want %d", fast.Counter, want)
			}
			if fast.Blocks < tc.threads*tc.rounds/2 {
				t.Fatalf("only %d of %d acquisitions blocked; the workload is not a convoy", fast.Blocks, tc.threads*tc.rounds)
			}
		})
	}
}

// poisonOutcome is what a region ended by a fatal panic leaves behind.
type poisonOutcome struct {
	Recovered any
	Unwound   map[int]int
	Leaked    int
}

// TestBackendsAgreeOnFatalPanic ends a region with a fatal panic while the
// other contexts sit parked both mid-batch and in Block. On both backends
// the poison unwind must resume each survivor once (running its defers),
// the drain must retire every carrier goroutine, and Run must re-raise the
// very value the body panicked with.
func TestBackendsAgreeOnFatalPanic(t *testing.T) {
	boom := errors.New("boom")
	fast, pull := onBothBackends(t, func() poisonOutcome {
		before := runtime.NumGoroutine()
		m := New(DefaultConfig())
		out := poisonOutcome{Unwound: map[int]int{}}
		func() {
			defer func() { out.Recovered = recover() }()
			m.Run(8, func(c *Context) {
				defer func() { out.Unwound[c.ID()]++ }()
				switch {
				case c.ID() == 7:
					c.Compute(5_000) // let the others park first
					panic(boom)
				case c.ID()%2 == 0:
					c.Block() // nobody wakes these
				default:
					for {
						c.Compute(400) // parks on every yield
					}
				}
			})
		}()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		out.Leaked = runtime.NumGoroutine() - before
		return out
	})
	if !reflect.DeepEqual(fast, pull) {
		t.Fatalf("backends disagree on the fatal panic:\nfast: %+v\npull: %+v", fast, pull)
	}
	if fast.Recovered != boom {
		t.Fatalf("Run re-raised %v, want the original panic value", fast.Recovered)
	}
	for id := 0; id < 8; id++ {
		if fast.Unwound[id] != 1 {
			t.Fatalf("context %d ran its defers %d times, want 1", id, fast.Unwound[id])
		}
	}
	if fast.Leaked > 0 {
		t.Fatalf("%d carrier goroutines leaked after the poison unwind", fast.Leaked)
	}
}

// TestBackendsAgreeOnConsecutiveRuns reuses one Machine for two regions of
// different widths: the second region's fresh Context records and slots
// must not see stale parity or parking state from the first region's
// drain.
func TestBackendsAgreeOnConsecutiveRuns(t *testing.T) {
	fast, pull := onBothBackends(t, func() [2]Result {
		m := New(DefaultConfig())
		first := degradedWorkload(m)
		a := m.Mem.AllocLine(8)
		second := m.Run(3, func(c *Context) {
			for i := 0; i < 50; i++ {
				c.Store(a, c.Load(a)+uint64(c.ID()))
				c.Compute(uint64(c.Rand.Int63n(25)))
			}
		})
		return [2]Result{first, second}
	})
	if !reflect.DeepEqual(fast, pull) {
		t.Fatalf("backends disagree across consecutive runs:\nfast: %+v\npull: %+v", fast, pull)
	}
}

func TestSchedulerBackendReporting(t *testing.T) {
	want := "runtime-coro"
	if !coroFastBuild || coroDegraded {
		want = "iter-pull"
	}
	if got := SchedulerBackend(); got != want {
		t.Fatalf("SchedulerBackend() = %q, want %q", got, want)
	}
}

// TestParkedCarrierFrames pins the depth of a park on the runtime-coroutine
// slot: the switch thunk tail-jumps into runtime.coroswitch and the park
// inlines into its scheduling point, so a resumed carrier returns from the
// switch straight into maybeYield or Block (see coro_amd64.s for why each
// frame costs a mispredicted return). From inside a lock convoy, where the
// other carriers sit parked in Block and at the yields of Compute, Load and
// Store, it takes every goroutine's traceback and checks each parked
// carrier's: no physical frame of the thunk or of the park helpers, a
// scheduling point as the first physical frame, and the carrier wrapper
// still reachable below it. Runtime frames, which tracebacks show only
// under GOTRACEBACK=system, are skipped.
func TestParkedCarrierFrames(t *testing.T) {
	if !coroFastBuild || coroDegraded {
		t.Skip("the frame layout under test is the runtime-coroutine slot's")
	}
	const threads = 6
	m := New(DefaultConfig())
	counter := m.Mem.AllocLine(8)
	held := false
	var waiters []*Context
	var dump []byte
	m.Run(threads, func(c *Context) {
		for r := 0; r < 20; r++ {
			if held {
				waiters = append(waiters, c)
				c.Block()
			} else {
				held = true
			}
			c.Store(counter, c.Load(counter)+1)
			c.Compute(uint64(c.Rand.Int63n(300)))
			if dump == nil && r == 10 {
				buf := make([]byte, 1<<20)
				dump = buf[:runtime.Stack(buf, true)]
			}
			if len(waiters) > 0 {
				next := waiters[0]
				waiters = waiters[1:]
				c.Wake(next, c.Now())
			} else {
				held = false
			}
			c.Compute(uint64(c.Rand.Int63n(1000)))
		}
	})

	pkg := strings.TrimSuffix(runtime.FuncForPC(reflect.ValueOf(New).Pointer()).Name(), "New")
	schedPoints := map[string]bool{}
	for _, f := range []string{"maybeYield", "Block", "Compute", "access", "Load", "Store"} {
		schedPoints[pkg+"(*Context)."+f] = true
	}
	forbidden := map[string]bool{
		pkg + "callCoroswitch":    true,
		pkg + "coroswitch":        true,
		pkg + "(*Context).parkOn": true,
	}
	parked, blocked := 0, 0
	for _, g := range strings.Split(string(dump), "\n\n") {
		lines := strings.Split(strings.TrimSpace(g), "\n")
		if !strings.Contains(lines[0], "[coroutine") || !strings.Contains(g, pkg+"(*Machine).startCarrier.func1") {
			continue // the sampling carrier, the region driver, other goroutines
		}
		parked++
		first, reaches := "", false
		for i := 1; i+1 < len(lines); i += 2 {
			fn := lines[i]
			if j := strings.LastIndex(fn, "("); j > 0 {
				fn = fn[:j]
			}
			physical := strings.Contains(lines[i+1], " +0x")
			if physical && forbidden[fn] {
				t.Errorf("parked carrier holds a physical %s frame:\n%s", fn, g)
			}
			if physical && first == "" && !strings.HasPrefix(fn, "runtime.") {
				first = fn
			}
			if strings.HasPrefix(fn, pkg+"(*Machine).startCarrier") {
				reaches = true
			}
		}
		if !schedPoints[first] {
			t.Errorf("parked carrier's first physical frame is %q, want a scheduling point:\n%s", first, g)
		}
		if first == pkg+"(*Context).Block" {
			blocked++
		}
		if !reaches {
			t.Errorf("parked carrier's traceback does not reach startCarrier:\n%s", g)
		}
	}
	if parked != threads-1 {
		t.Fatalf("found %d parked carriers, want %d:\n%s", parked, threads-1, dump)
	}
	if blocked == 0 {
		t.Fatalf("no carrier was parked in Block:\n%s", dump)
	}
}

// switchDeep switches on co from depth calls below its caller.
//
//go:noinline
func switchDeep(co *coro, depth int) {
	if depth > 0 {
		switchDeep(co, depth-1)
		return
	}
	coroswitch(co)
}

// TestCoroSwitchAtEveryStackDepth switches on one slot from every call
// depth up to 2000 small frames, past several doublings of a fresh
// goroutine's stack, with the slot's other party looping on the same
// switch. Each depth's switch is that round's deepest call, so at some
// depth the switch target itself finds the stack full and grows it: it
// spills its argument into the word above its return address (after the
// tail jump, the thunk's pc argument; with a frameless call, the return
// address) and the copied stack must unwind from the target into the
// caller. Runs on whichever backends the process has.
func TestCoroSwitchAtEveryStackDepth(t *testing.T) {
	const depths = 2000
	run := func() (switches int) {
		done := make(chan int)
		go func() {
			stop := false
			co := newcoro(func(co *coro) {
				for !stop {
					switches++
					coroswitch(co)
				}
			})
			for d := 0; d < depths; d++ {
				switchDeep(co, d)
			}
			stop = true
			coroswitch(co) // the carrier returns, releasing this goroutine
			done <- switches
		}()
		return <-done
	}
	if got := run(); got != depths {
		t.Fatalf("carrier switched back %d times, want %d", got, depths)
	}
	if coroFastBuild && !coroDegraded {
		setCoroDegraded(true)
		defer setCoroDegraded(false)
		if got := run(); got != depths {
			t.Fatalf("iter.Pull slot: carrier switched back %d times, want %d", got, depths)
		}
	}
}

// gcSink keeps TestCarrierCreationUnderGC's garbage on the heap.
var gcSink atomic.Pointer[[]byte]

// TestCarrierCreationUnderGC creates carriers on four goroutines at once
// while the collector runs nearly continuously, so one goroutine's GC
// assist scans another's stack while it is stopped inside the newcoro
// thunk: every frame there, the thunk's included, must carry a stack map.
func TestCarrierCreationUnderGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := New(DefaultConfig())
			for r := 0; r < 2000; r++ {
				m.Run(8, func(c *Context) {
					garbage := make([]byte, 1024)
					gcSink.Store(&garbage)
					c.Compute(1)
				})
			}
		}()
	}
	wg.Wait()
}
