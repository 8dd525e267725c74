//go:build !amd64 || race || nocorolink

package sim

// Portable build of the symmetric coroutine slot (see coro.go): the iter.Pull
// backend in coro_pull.go is the only implementation — on architectures
// without an assembly thunk, under the race detector (Pull's own
// happens-before annotations order every switch; raw runtime switches carry
// none), and via the nocorolink build tag as a pure-Go reference to debug the
// fast path against.

// coroFastBuild reports whether this build links the runtime-coroutine fast
// path at all (it does not; see coro_runtime.go for the amd64 default).
const coroFastBuild = false

func newcoro(f func(*coro)) *coro { return pullNewcoro(f) }
func coroswitch(c *coro)          { pullCoroswitch(c) }
