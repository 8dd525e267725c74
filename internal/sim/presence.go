package sim

// presenceTab is the machine-level line-presence directory: for every line
// resident in any core's L1 it records the bitmask of cores holding a copy.
// The coherence probe on the access path consults it to visit only the
// caches that actually hold the line — in the common case (private data,
// no sharer) a write or miss probes nothing instead of scanning every other
// core's set. The directory is exact, not a filter: install, invalidate,
// eviction, EvictStorm and FlushCaches keep it in lockstep with the tag
// planes, and VerifyCaches audits the correspondence.
type presenceTab struct {
	AddrMap[uint64] // line → bitmask of core ids holding it
}

// presenceSize is the directory's starting size for totalCores cores: the
// size that keeps the worst case (every way of every cache valid, all lines
// distinct) under 25% load, capped at 32K slots so big topologies lean on
// on-demand growth (host-side work, invisible to virtual time) instead of a
// huge up-front allocation. At the 64-core limit the worst case grows the
// capped table once, so FlushCaches' Reset never shrinks it.
func presenceSize(totalCores int) int {
	size := 1024
	for size < totalCores*cacheSets*cacheWays*4 && size < 1<<15 {
		size *= 2
	}
	return size
}

// get returns the core bitmask for line (0 when no cache holds it).
func (p *presenceTab) get(line Addr) uint64 {
	if i := p.Find(line); i >= 0 {
		return p.Vals[i]
	}
	return 0
}

// add sets core's bit for line.
func (p *presenceTab) add(line Addr, core int) {
	i, _ := p.Place(line)
	p.Vals[i] |= 1 << uint(core)
}

// drop clears core's bit for line, removing the entry when no copies remain.
func (p *presenceTab) drop(line Addr, core int) {
	if i := p.Find(line); i >= 0 {
		if p.Vals[i] &^= 1 << uint(core); p.Vals[i] == 0 {
			p.Remove(i)
		}
	}
}
