package main

import (
	"iter"
	"time"
)

// The reference kernel is the benchmark's yardstick for host speed. Every op
// is timed between two runs of it, and the op's host time is reported in
// reference units (ref): op time divided by the mean of those two kernel
// times. A host that slows down for a while (a busy neighbour, a lower clock)
// slows the kernel and the op alike, so the ratio holds still where raw
// seconds drift.
//
// The kernel is a miniature of the simulator's event loop, written from
// scratch: a 4-ary min-heap of thread clocks, an 8-way set-associative tag
// array with LRU victims, a memory table behind it, and a coroutine switch
// per event. It shares the simulator's instruction mix (heap sifts, tag
// scans, unpredictable branches, runtime coroutine handoffs), so host
// interference that slows the simulator slows the kernel about as much; a
// plain pointer chase tracked the simulator measurably worse here. It imports
// nothing from the simulator, so no change to the program can move it, and
// it allocates nothing after newRefKernel.
const (
	refThreads = 32      // heap entries: clock<<5 | thread id
	refSets    = 64      // 64 sets x 8 ways, the simulator's L1 geometry
	refWays    = 8       //
	refLines   = 1 << 12 // distinct lines touched: most accesses miss
	refMem     = 1 << 12 // memory-table words read on a miss
	refSteps   = 1 << 14 // events per run: a few milliseconds
)

type refKernel struct {
	heap [refThreads]uint64
	tags [refSets][refWays]uint64
	lru  [refSets][refWays]uint32
	mem  []uint64
	// next resumes a coroutine that yields forever: one runtime coroutine
	// switch there and back, like a simulated thread handoff.
	next func() (uint64, bool)
	// sink keeps the loop's result live so the compiler cannot drop it.
	sink uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{mem: make([]uint64, refMem)}
	for i := range k.mem {
		k.mem[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	var n uint64
	k.next, _ = iter.Pull(func(yield func(uint64) bool) {
		for n++; yield(n); n++ {
		}
	})
	return k
}

// run executes the kernel once from the same initial state and returns its
// host time.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	for i := range k.heap {
		k.heap[i] = uint64(i)
	}
	k.tags = [refSets][refWays]uint64{}
	k.lru = [refSets][refWays]uint32{}
	x := uint64(88172645463325252)
	for s := uint32(1); s <= refSteps; s++ {
		top := k.heap[0]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := (x>>8)%refLines + 1
		set := line % refSets
		cost := uint64(4)
		hit := false
		for w := range k.tags[set] {
			if k.tags[set][w] == line {
				k.lru[set][w] = s
				hit = true
				break
			}
		}
		if !hit {
			v := 0
			for w := 1; w < refWays; w++ {
				if k.lru[set][w] < k.lru[set][v] {
					v = w
				}
			}
			k.tags[set][v], k.lru[set][v] = line, s
			cost += k.mem[(x^line)%refMem] & 63
		}
		y, _ := k.next()
		k.heap[0] = top + (cost+y&1)<<5
		k.siftDown()
	}
	k.sink += k.heap[0]
	return time.Since(t0)
}

// siftDown restores the heap after the root's key grew.
func (k *refKernel) siftDown() {
	for i := 0; ; {
		c := 4*i + 1
		if c >= refThreads {
			return
		}
		m := c
		for j := c + 1; j < c+4 && j < refThreads; j++ {
			if k.heap[j] < k.heap[m] {
				m = j
			}
		}
		if k.heap[m] >= k.heap[i] {
			return
		}
		k.heap[i], k.heap[m] = k.heap[m], k.heap[i]
		i = m
	}
}
