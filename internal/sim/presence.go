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
// Layout mirrors the open-addressing tables in package htm: linear probing,
// zero key = empty slot (line address 0 never occurs; simulated memory
// reserves the first line), backward-shift deletion.
type presenceTab struct {
	keys  []Addr
	vals  []uint64 // bitmask of core ids holding the line
	n     int
	shift uint // 64 - log2(len(keys))
}

// presenceSize is the directory's starting size for totalCores cores: the
// size that keeps the worst case (every way of every cache valid, all lines
// distinct) under 25% load, capped at 32K slots so big topologies lean on
// on-demand growth (host-side work, invisible to virtual time) instead of a
// huge up-front allocation.
func presenceSize(totalCores int) int {
	size := 1024
	for size < totalCores*cacheSets*cacheWays*4 && size < 1<<15 {
		size *= 2
	}
	return size
}

func (p *presenceTab) init(size int) {
	p.keys = make([]Addr, size)
	p.vals = make([]uint64, size)
	p.n = 0
	p.shift = 64
	for s := size; s > 1; s >>= 1 {
		p.shift--
	}
}

func (p *presenceTab) slot(a Addr) int {
	return int(uint64(a) * 0x9e3779b97f4a7c15 >> p.shift)
}

// get returns the core bitmask for line (0 when no cache holds it).
func (p *presenceTab) get(line Addr) uint64 {
	mask := len(p.keys) - 1
	for i := p.slot(line); ; i = (i + 1) & mask {
		switch p.keys[i] {
		case line:
			return p.vals[i]
		case 0:
			return 0
		}
	}
}

// add sets core's bit for line.
func (p *presenceTab) add(line Addr, core int) {
	if p.n >= len(p.keys)-len(p.keys)/4 {
		p.grow()
	}
	mask := len(p.keys) - 1
	for i := p.slot(line); ; i = (i + 1) & mask {
		switch p.keys[i] {
		case line:
			p.vals[i] |= 1 << uint(core)
			return
		case 0:
			p.keys[i] = line
			p.vals[i] = 1 << uint(core)
			p.n++
			return
		}
	}
}

// drop clears core's bit for line, removing the entry when no copies remain.
func (p *presenceTab) drop(line Addr, core int) {
	mask := len(p.keys) - 1
	for i := p.slot(line); ; i = (i + 1) & mask {
		switch p.keys[i] {
		case line:
			if p.vals[i] &^= 1 << uint(core); p.vals[i] == 0 {
				p.remove(i)
			}
			return
		case 0:
			return
		}
	}
}

// remove deletes the entry at slot i with backward-shift compaction.
func (p *presenceTab) remove(i int) {
	mask := len(p.keys) - 1
	p.n--
	j := i
	for {
		j = (j + 1) & mask
		if p.keys[j] == 0 {
			break
		}
		if (j-p.slot(p.keys[j]))&mask >= (j-i)&mask {
			p.keys[i], p.vals[i] = p.keys[j], p.vals[j]
			i = j
		}
	}
	p.keys[i], p.vals[i] = 0, 0
}

func (p *presenceTab) grow() {
	old, oldVals := p.keys, p.vals
	p.init(len(p.keys) * 2)
	for i, k := range old {
		if k != 0 {
			mask := len(p.keys) - 1
			for s := p.slot(k); ; s = (s + 1) & mask {
				if p.keys[s] == 0 {
					p.keys[s], p.vals[s] = k, oldVals[i]
					p.n++
					break
				}
			}
		}
	}
}

// reset empties the directory (FlushCaches).
func (p *presenceTab) reset() {
	clear(p.keys)
	clear(p.vals)
	p.n = 0
}
