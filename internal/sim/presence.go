package sim

// presenceTab is the machine-level line-presence directory: for every line
// resident in any core's L1 it records the bitmask of cores holding a copy.
// The coherence probe on the access path consults it to visit only the
// caches that actually hold the line — in the common case (private data,
// no sharer) a write or miss probes nothing instead of scanning every other
// core's set. The directory is exact, not a filter: install, invalidate,
// eviction, EvictStorm and FlushCaches keep it in lockstep with the tag
// planes, and VerifyCaches audits the correspondence.
//
// Simulated memory is one flat word array, so line numbers (line >> 6) are
// dense: the directory is a flat slice of core masks indexed by line
// number, one word per simulated line, grown by doubling as lines past its
// end are first cached.
type presenceTab []uint64

// get returns the core bitmask for line (0 when no cache holds it).
func (p presenceTab) get(line Addr) uint64 {
	if i := uint64(line >> 6); i < uint64(len(p)) {
		return p[i]
	}
	return 0
}

// add sets core's bit for line.
func (p *presenceTab) add(line Addr, core int) {
	i := int(line >> 6)
	if i >= len(*p) {
		n := max(len(*p), 64)
		for n <= i {
			n *= 2
		}
		grown := make([]uint64, n)
		copy(grown, *p)
		*p = grown
	}
	(*p)[i] |= 1 << uint(core)
}

// drop clears core's bit for line, which that core's cache holds.
func (p presenceTab) drop(line Addr, core int) {
	p[line>>6] &^= 1 << uint(core)
}
