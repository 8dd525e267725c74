package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestContextRandStreams: each context's Rand yields the stream of
// rand.New(rand.NewSource(seed)) for its per-context seed, region after
// region on one machine (fresh records, some idle for a region), and
// counting the draws another thread's access makes for it through the
// evict hook while it sits queued mid-Compute, the way htm demotes an
// evicted transactional read.
func TestContextRandStreams(t *testing.T) {
	cfg := Config{Cores: 2, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 3}
	m := New(cfg)
	// Lines one 4 KB stride apart share an L1 set, so the sibling's loads
	// evict the owner's transactionally read lines.
	const stride = cacheSets * LineSize
	base := m.Mem.AllocLine(32 * stride)
	type draw struct {
		kind int
		v    uint64
	}
	var queuedDraws int
	for _, n := range []int{4, 2, 4, 3} {
		draws := make([][]draw, n)
		m.EvictHook = func(owner *Context, _ Addr, _ bool) {
			if owner.computeLeft > 0 {
				queuedDraws++
			}
			draws[owner.id] = append(draws[owner.id], draw{5, uint64(owner.Rand.Int63n(1000))})
		}
		m.Run(n, func(c *Context) {
			for r := 0; r < 12; r++ {
				var v uint64
				switch k := (r + c.id) % 5; k {
				case 0:
					v = uint64(c.Rand.Intn(1000))
				case 1:
					v = uint64(c.Rand.Int63n(1 << 40))
				case 2:
					v = math.Float64bits(c.Rand.Float64())
				case 3:
					v = c.Rand.Uint64()
				case 4:
					v = uint64(c.Rand.Int63())
				}
				draws[c.id] = append(draws[c.id], draw{(r + c.id) % 5, v})
				own := base + Addr(c.core)*LineSize
				if c.slot == 0 {
					for k := 0; k < 8; k++ {
						c.TxAccess(own+Addr(k)*stride, false)
					}
					c.Compute(5000)
				} else {
					for k := 8; k < 24; k++ {
						c.Load(own + Addr(k)*stride)
					}
				}
			}
		})
		for id, ds := range draws {
			ref := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			for i, d := range ds {
				var want uint64
				switch d.kind {
				case 0:
					want = uint64(ref.Intn(1000))
				case 1:
					want = uint64(ref.Int63n(1 << 40))
				case 2:
					want = math.Float64bits(ref.Float64())
				case 3:
					want = ref.Uint64()
				case 4:
					want = uint64(ref.Int63())
				case 5:
					want = uint64(ref.Int63n(1000))
				}
				if d.v != want {
					t.Fatalf("region of %d threads: t%d draw %d (kind %d) = %d, want %d", n, id, i, d.kind, d.v, want)
				}
			}
		}
	}
	if queuedDraws == 0 {
		t.Fatal("no evict-hook draw was made for a context queued mid-Compute")
	}
}
