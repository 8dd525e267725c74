package sim

// The scheduler's stack switches run on a symmetric coroutine slot, the
// semantics of the runtime's coro primitive (runtime/coro.go, the machinery
// under iter.Pull). A coro always holds exactly one parked goroutine:
// coroswitch(c) releases the goroutine parked in c and parks the caller
// there in its place; when the goroutine newcoro created returns from its
// function, it releases whichever party is parked in its creation coro and
// exits.
//
// The slot is symmetric, so the running context switches straight to its
// successor's slot: one switch per handoff, and the driver goroutine is only
// involved at region start, teardown, and drain. (iter.Pull used as designed
// is strictly two-party — yield always returns to the last next() caller —
// so every handoff between simulated threads would bounce through a
// dispatcher: two stack switches per handoff.)
//
// Two implementations provide the slot:
//
//   - coro_runtime.go (amd64 without -race, default): the runtime's own
//     coros, entered by discovered entry PC through an assembly thunk
//     (coro_amd64.s). See coro_runtime.go for why discovery is needed. If
//     discovery or the startup self-test fails (new toolchain), the build
//     degrades at init — once, with a stderr warning — to the iter.Pull
//     backend instead of panicking; SchedulerBackend reports which is live.
//   - coro_pull.go (every build): the same slot on iter.Pull, whose next and
//     yield are both coroswitch on one coro; one parity bit per slot
//     satisfies Pull's next/yield alternation check. coro_portable.go makes
//     it the only backend on other architectures, under the race detector
//     (Pull carries its own happens-before annotations; a raw switch carries
//     none) and under the nocorolink build tag.
//
// Measured (DESIGN.md §12): over ten alternated hostbench rounds the
// iter.Pull slot costs +14% ref_per_mevent on stamp-8t and +19% on
// net-scale against the fast path, losing every round; the channel
// handshake it replaced as the portable backend cost +168% and +205%. On
// BenchmarkHandoffPingPong (two contexts) the iter.Pull gap is only 8-13%,
// so the micro-benchmark understates what the fast path buys.
//
// The scheduler layered on top (sim.go) owns the invariants iter.Pull
// enforces for its own callers. The party that resumes a goroutine must
// park itself in the same slot it switched on (tracked via Context.parkedIn
// and Machine.dispParked), and a finished carrier must not return from its
// outer function until the region drain (its exit releases whoever sits in
// the carrier's creation slot, which is only predictable once every carrier
// is parked in its finish park — see drainCarriers). Carrier panics are
// contained in the carrier wrapper (see startCarrier) and poison unwind is
// a flag checked after each switch.
