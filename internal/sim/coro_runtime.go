//go:build amd64 && !race && !nocorolink

package sim

// Fast implementation of the symmetric coroutine slot (see coro.go): the
// runtime's own coro primitive, runtime.newcoro and runtime.coroswitch.
//
// Neither function can be reached at link time: both are on the linker's
// blocked-linkname list (reserved to package iter), and assembly references
// are classified as linknames too. Their entry PCs are public information,
// however — the runtime's own symbol table reports them through
// runtime.FuncForPC — so coroInit discovers the PCs once at startup by
// walking the text segment, and the thunks in coro_amd64.s enter a raw PC
// with the ABIInternal register argument. The thunks are the only
// architecture-specific piece; other architectures use the iter.Pull backend
// (coro_pull.go) directly. So do race builds: a raw switch carries no
// happens-before edge for the detector, while iter.Pull annotates its own.
//
// The switch is a tail call. coroswitch inlines into each park (maybeYield,
// Block, the finish park, the driver's resume), whose code calls
// callCoroswitch, and the thunk jumps to runtime.coroswitch instead of
// calling it. The thunk has no frame ($0, NOFRAME), so the runtime's frame
// sits directly on the Go caller's, with the caller's return address where
// a direct call would have put it: tracebacks, stack copying and the GC see
// an ordinary call from the scheduling point. Nothing describes the thunk's
// c argument once the jump is taken, which is safe because the scheduler
// keeps every slot it switches on reachable (Context.parkedIn,
// Machine.dispParked). Depth matters because the runtime parks through
// mcall and resumes through gogo: that leaves the CPU's return-stack
// predictor one entry off, so every return on the resumed goroutine's way
// back to workload code mispredicts. With the jump and the inlined park a
// resumed carrier returns from runtime.coroswitch straight into its
// scheduling point; before, it also returned through the thunk and,
// depending on what PGO inlined, coroswitch and parkOn.
// TestParkedCarrierFrames pins the layout and BenchmarkHandoffDeep prices
// the depth.
//
// The discovery is deliberately conservative: it walks function by function
// from the base of the text segment (the runtime is always linked first),
// and a one-shot self-test drives a full create/switch/exit round trip
// through the discovered PCs before the scheduler trusts them. If a future
// toolchain renames or removes the primitives, the process does not die:
// coroInit degrades to the iter.Pull backend with a logged warning
// (degradeCoro), the sweep completes with identical results, and the
// nocorolink build tag remains the explicit opt-out while the thunk is
// updated. Degrading points the switch thunk at pullCoroswitch, so a switch
// is one unconditional thunk call on either backend.

import (
	"fmt"
	"iter"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
)

// coroFastBuild reports whether this build links the runtime-coroutine fast
// path (the iter.Pull backend remains available behind coroDegraded).
const coroFastBuild = true

var (
	newcoroPC    uintptr // entry of runtime.newcoro
	coroswitchPC uintptr // entry coroswitch jumps to: runtime.coroswitch, or pullCoroswitch once degraded

	runtimeCoroswitchPC uintptr // entry of runtime.coroswitch, once discovered
	// pullCoroswitchPC is pullCoroswitch's ABIInternal entry, the code
	// pointer of its func value, which takes c in AX as runtime.coroswitch
	// does.
	pullCoroswitchPC = reflect.ValueOf(pullCoroswitch).Pointer()
)

func init() { coroInit() }

func coroInit() {
	if err := discoverCoroPCs(); err != nil {
		degradeCoro(err.Error())
		return
	}
	if err := coroSelfTest(); err != nil {
		degradeCoro(err.Error())
	}
}

// degradeCoro records the fallback and warns once on stderr. Degradation is
// a warning, not a panic: the portable backend produces identical simulated
// results, so a massive sweep on a new toolchain completes slowly instead of
// dying at startup.
func degradeCoro(reason string) {
	setCoroDegraded(true)
	os.Stderr.WriteString("sim: warning: " + reason + "; degrading to the portable iter.Pull scheduler (slower, results unchanged)\n")
}

// setCoroDegraded moves the process onto the iter.Pull slot (on) or back to
// the runtime's coros (off, only after a successful discovery). Every slot
// must be idle: a slot's semantics follow the backend that created it.
func setCoroDegraded(on bool) {
	coroDegraded = on
	coroswitchPC = runtimeCoroswitchPC
	if on {
		coroswitchPC = pullCoroswitchPC
	}
}

// discoverCoroPCs walks the text segment for the two runtime entry points.
func discoverCoroPCs() error {
	// The primitives are only linked into the binary when something reaches
	// them: run one iter.Pull round trip so dead-code elimination keeps
	// them (and as a live check that the coroutine machinery works).
	next, stop := iter.Pull(func(yield func(struct{}) bool) { yield(struct{}{}) })
	if _, ok := next(); !ok {
		return fmt.Errorf("sim: iter.Pull round trip failed")
	}
	stop()

	// Any runtime function gives a PC inside the text segment; runtime.GC is
	// exported and sits well past the coroutine code (mgc.go vs coro.go).
	anchor := reflect.ValueOf(runtime.GC).Pointer()
	// Probe downward page by page to the base of the text segment: FuncForPC
	// resolves every text address (inter-function gaps map to the preceding
	// function) and returns nil below the segment.
	lo := anchor &^ 0xfff
	for lo > 0 && runtime.FuncForPC(lo-0x1000) != nil {
		lo -= 0x1000
	}
	// Hop function to function until both entries are found. The scan is
	// bounded by the end of the text segment; in practice coro.go's code
	// sits in the first megabyte of the runtime and the walk ends early.
	for pc := lo; newcoroPC == 0 || runtimeCoroswitchPC == 0; {
		f := runtime.FuncForPC(pc)
		if f == nil {
			if pc > anchor {
				return fmt.Errorf("sim: runtime coroutine entry points not found in text segment %#x-%#x (%s)",
					lo, pc, runtime.Version())
			}
			pc += 16
			continue
		}
		switch f.Name() {
		case "runtime.newcoro":
			newcoroPC = f.Entry()
		case "runtime.coroswitch":
			runtimeCoroswitchPC = f.Entry()
		}
		// Advance past this function: FuncForPC reports the same entry for
		// every address it covers.
		for e := f.Entry(); ; {
			pc += 16
			if g := runtime.FuncForPC(pc); g == nil || g.Entry() != e {
				break
			}
		}
	}
	coroswitchPC = runtimeCoroswitchPC
	return nil
}

// coroSelfTest drives one create → switch-in → exit → release round trip
// through the discovered PCs before the scheduler is allowed to build on
// them. It catches an entry point that resolved but no longer has coro
// semantics (recoverable panics only; a hard ABI break still crashes, which
// the nocorolink tag exists for).
func coroSelfTest() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sim: coroutine self-test panicked: %v", p)
		}
	}()
	// atomic: the switch under test is not yet trusted to hand control
	// over, let alone to order memory.
	var ran atomic.Bool
	c := callNewcoro(newcoroPC, func(*coro) { ran.Store(true) })
	callCoroswitch(coroswitchPC, c)
	if !ran.Load() {
		return fmt.Errorf("sim: coroutine self-test: carrier never ran")
	}
	return nil
}

// callNewcoro and callCoroswitch (coro_amd64.s) enter the function at pc
// with the second argument in the first argument register: callNewcoro by
// call, keeping f visible to the garbage collector through its argument
// pointer map while newcoro runs; callCoroswitch by tail jump, leaving no
// frame of its own on the parked stack, so c must stay reachable through
// the caller (Context.parkedIn, Machine.dispParked).
func callNewcoro(pc uintptr, f func(*coro)) *coro
func callCoroswitch(pc uintptr, c *coro)

// newcoro creates a coro holding a fresh goroutine that runs f on its first
// switch-in; when f returns, the goroutine releases whichever party is then
// parked in the creation coro and exits. The coroDegraded check is one
// never-taken predictable branch on the healthy path.
func newcoro(f func(*coro)) *coro {
	if coroDegraded {
		return pullNewcoro(f)
	}
	return callNewcoro(newcoroPC, f)
}

// coroswitch releases the goroutine parked in c and parks the caller there.
// It inlines into every park, so the thunk's jump leaves the switch's frame
// directly on the scheduling point's.
func coroswitch(c *coro) { callCoroswitch(coroswitchPC, c) }
