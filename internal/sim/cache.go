package sim

// Cache models one core's L1 data cache: 32 KB, 8-way set associative,
// 64-byte lines, LRU replacement — the structure the first Intel TSX
// implementation uses to track transactional state. Transactionally read
// and written lines carry per-HyperThread marks; evicting a marked line
// fires the machine's EvictHook, which is how capacity aborts (written
// lines) and secondary read-set tracking (read lines) arise in the model.
//
// Both HyperThreads of a core share the cache, so an 8-thread run halves the
// effective transactional capacity available to each thread — reproducing
// the paper's observation that Hyper-Threading compounds the capacity issue
// (Table 1).

import (
	"fmt"
	"math/bits"
)

const (
	cacheSets = 64
	cacheWays = 8
)

// Per-way metadata is packed into one uint32 word (see Cache.meta):
//
//	bits 0-7   per-HT-slot transactional-read marks (rmask)
//	bits 8-15  per-HT-slot transactional-write marks (wmask)
const metaWShift = 8 // wmask bit position

// CacheStats aggregates cache-model event counts (useful for analyzing why
// a synchronization scheme behaves as it does — e.g. lock-line ping-pong
// shows up as transfers).
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Transfers uint64 // cache-to-cache services and write invalidations
	Evictions uint64 // lines displaced by capacity/associativity
	// Invalidations counts lines dropped because a remote core wrote them —
	// the coherence traffic behind both lock-line ping-pong and
	// conflict-induced transactional aborts.
	Invalidations uint64
	// RemoteTransfers counts the subset of Transfers served from a cache on
	// another socket; RemoteMisses counts misses whose home memory
	// controller is on another socket. Both stay zero on single-socket
	// machines.
	RemoteTransfers uint64
	RemoteMisses    uint64
}

// Cache is one core's L1 data cache model. The per-line state is kept in
// structure-of-arrays form — parallel tags/meta/lru planes indexed
// [set][way] — so each phase of an access touches only the plane it needs:
// lookup scans a set's 8 tags packed into a single host cache line, the
// mark updates hit one meta word, and only LRU victim selection reads
// the lru plane.
type Cache struct {
	m      *Machine
	id     int
	socket int // which package this core sits in (id / Cfg.Cores)
	// tags is authoritative: the line base address held by each way, or 0
	// for an invalid way. Line address 0 never occurs — simulated memory
	// reserves the first line (Alloc starts at 64) — so tag 0 unambiguously
	// means "invalid way".
	tags [cacheSets][cacheWays]Addr
	// meta packs each way's transactional marks (layout above metaWShift).
	meta [cacheSets][cacheWays]uint32
	// lru holds each way's last-touch tick for victim selection.
	lru   [cacheSets][cacheWays]uint64
	mru   [cacheSets]uint8 // way of each set's last hit, probed first in lookup
	ticks uint64
	stats CacheStats
}

func setOf(line Addr) int { return int((line >> 6) % cacheSets) }

// homeSocket maps a line to the socket owning its memory-controller home:
// lines interleave across sockets at line granularity, the hardware default
// for the interleaved-memory configurations the NUMA cost sources measure.
func (m *Machine) homeSocket(line Addr) int {
	return int(uint64(line>>6) % uint64(m.nSockets))
}

// lookup returns the way index holding line, or -1. The set's
// most-recently-hit way is probed first: accesses exhibit strong temporal
// locality, so most lookups resolve without scanning all ways.
func (c *Cache) lookup(line Addr) int {
	set := setOf(line)
	tags := &c.tags[set]
	if w := c.mru[set]; tags[w] == line {
		return int(w)
	}
	for w := range tags {
		if tags[w] == line {
			c.mru[set] = uint8(w)
			return w
		}
	}
	return -1
}

// invalidate drops line if present. Transactional marks are dropped
// silently: the corresponding transaction is aborted through the conflict
// hook (this is an invalidation due to a remote write), not the evict hook.
func (c *Cache) invalidate(line Addr) bool {
	if w := c.lookup(line); w >= 0 {
		set := setOf(line)
		c.tags[set][w] = 0
		c.meta[set][w] = 0
		c.lru[set][w] = 0
		c.m.pres.drop(line, c.id)
		c.stats.Invalidations++
		return true
	}
	return false
}

// ctxFor maps a HyperThread slot of this cache's core to its context, if a
// thread is running there in the current region.
func (m *Machine) ctxFor(core, slot int) *Context {
	id := slot*m.nCores + core
	if id < len(m.ctxs) {
		return m.ctxs[id]
	}
	return nil
}

// access services one memory access by context ctx to the given line and
// returns its cycle cost. It maintains inclusion of the access in the local
// L1 (evicting as needed), invalidates remote copies on writes, and applies
// transactional read/write marks when tx is set.
func (c *Cache) access(ctx *Context, line Addr, write, tx bool) uint64 {
	m := c.m
	c.ticks++
	w := c.lookup(line)
	set := setOf(line)

	var cost uint64
	remote := false
	remoteSock := false // some holder sat on another socket
	if write || w < 0 {
		// A write needs exclusive ownership; a read miss may be served by a
		// cache-to-cache transfer. Either way, probe the other cores. A
		// write hit probes too, even on a line no other cache holds: the
		// presence directory shows that in one load, so an exclusive (MESI
		// E) bit per way would save nothing (DESIGN.md §12).
		//
		// The presence directory names the cores holding a copy; iterate
		// them in ascending core order (matching a full scan) and skip the
		// rest. Most lines are private, so the mask is usually empty.
		others := m.pres.get(line) &^ (1 << uint(c.id))
		for others != 0 {
			core := bits.TrailingZeros64(others)
			others &^= 1 << uint(core)
			other := m.caches[core]
			if write {
				if other.invalidate(line) {
					remote = true
					remoteSock = remoteSock || other.socket != c.socket
				}
			} else if other.lookup(line) >= 0 {
				// A read leaves the remote copy in place: both caches now
				// share the line.
				remote = true
				remoteSock = remoteSock || other.socket != c.socket
			}
		}
	}
	switch {
	case w >= 0 && !remote:
		if tx {
			cost = m.Costs.TxAccess
		} else {
			cost = m.Costs.L1Hit
		}
		c.stats.Hits++
	case remoteSock:
		// Served across the socket interconnect: directory lookup at the
		// home node plus the remote cache-to-cache forward.
		cost = m.Costs.RemoteTransfer + m.Costs.DirHop
		c.stats.Transfers++
		c.stats.RemoteTransfers++
	case remote:
		cost = m.Costs.Transfer
		c.stats.Transfers++
	default:
		cost = m.Costs.Miss
		if m.nSockets > 1 && m.homeSocket(line) != c.socket {
			// Miss filled by a remote socket's memory controller.
			cost = m.Costs.RemoteMiss
			c.stats.RemoteMisses++
		}
		c.stats.Misses++
	}

	if w < 0 {
		w = c.install(line)
	}
	c.lru[set][w] = c.ticks
	if tx {
		bit := uint32(1) << uint(ctx.slot)
		if write {
			bit <<= metaWShift
		}
		c.meta[set][w] |= bit
	}
	return cost
}

// install brings line into the cache, evicting the LRU way of its set.
// Evicted transactional marks fire the EvictHook per marked HyperThread:
// written lines cause capacity aborts; read lines demote to the secondary
// tracking structure.
func (c *Cache) install(line Addr) int {
	set := setOf(line)
	tags := &c.tags[set]
	lru := &c.lru[set]
	victim := 0
	for w := range tags {
		if tags[w] == 0 {
			victim = w
			goto place
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	// No invalid way: the victim is a live line being displaced.
	c.stats.Evictions++
	c.m.pres.drop(tags[victim], c.id)
	c.fireEvictHook(tags[victim], c.meta[set][victim])
place:
	c.m.pres.add(line, c.id)
	tags[victim] = line
	c.meta[set][victim] = 0
	lru[victim] = 0
	c.mru[set] = uint8(victim)
	if c.m.Cfg.Invariants {
		if d := c.checkSet(set); d != "" {
			panic(&InvariantError{Point: "l1-set",
				Detail: fmt.Sprintf("core %d set %d after install of %#x: %s", c.id, set, line, d)})
		}
	}
	return victim
}

// fireEvictHook notifies package htm about the transactional marks carried
// by a line leaving the cache: written lines cause capacity aborts, read
// lines demote to the secondary tracking structure.
func (c *Cache) fireEvictHook(tag Addr, meta uint32) {
	if meta == 0 || c.m.EvictHook == nil {
		return
	}
	coreID := c.id
	for slot := 0; slot < 8; slot++ {
		bit := uint32(1) << uint(slot)
		if meta&(bit<<metaWShift) != 0 {
			if owner := c.m.ctxFor(coreID, slot); owner != nil {
				c.m.EvictHook(owner, tag, true)
			}
		} else if meta&bit != 0 {
			if owner := c.m.ctxFor(coreID, slot); owner != nil {
				c.m.EvictHook(owner, tag, false)
			}
		}
	}
}

// EvictStorm forcibly evicts up to n randomly chosen valid lines from c's
// core L1, firing the usual eviction hooks (capacity aborts, read-set
// demotion) for any transactional marks they carry. pick(k) must return a
// value in [0,k); fault injection supplies its deterministic PRNG. The
// return value is how many lines were actually evicted (random picks may
// land on invalid ways). This models the capacity pressure of an interfering
// process or kernel activity trashing the cache mid-run.
func (m *Machine) EvictStorm(c *Context, n int, pick func(k int) int) int {
	cache := m.caches[c.core]
	evicted := 0
	for i := 0; i < n; i++ {
		set, way := pick(cacheSets), pick(cacheWays)
		if cache.tags[set][way] == 0 {
			continue
		}
		m.pres.drop(cache.tags[set][way], cache.id)
		cache.fireEvictHook(cache.tags[set][way], cache.meta[set][way])
		cache.stats.Evictions++
		cache.tags[set][way] = 0
		cache.meta[set][way] = 0
		cache.lru[set][way] = 0
		evicted++
	}
	return evicted
}

// ClearTxMarks removes the transactional marks context ctx holds on line in
// its core's cache; package htm calls it when a transaction commits or
// aborts. The line itself stays cached (commit does not flush data).
func (m *Machine) ClearTxMarks(ctx *Context, line Addr) {
	c := ctx.cache
	if w := c.lookup(line); w >= 0 {
		bit := uint32(1) << uint(ctx.slot)
		c.meta[setOf(line)][w] &^= bit | bit<<metaWShift
	}
}

// FlushCaches invalidates every line in every cache (used between
// experiment repetitions for independence).
func (m *Machine) FlushCaches() {
	for _, c := range m.caches {
		c.tags = [cacheSets][cacheWays]Addr{}
		c.meta = [cacheSets][cacheWays]uint32{}
		c.lru = [cacheSets][cacheWays]uint64{}
	}
	clear(m.pres)
}

// CacheStats returns the machine-wide aggregate of cache events.
func (m *Machine) CacheStats() CacheStats {
	var out CacheStats
	for _, c := range m.caches {
		out.Hits += c.stats.Hits
		out.Misses += c.stats.Misses
		out.Transfers += c.stats.Transfers
		out.Evictions += c.stats.Evictions
		out.Invalidations += c.stats.Invalidations
		out.RemoteTransfers += c.stats.RemoteTransfers
		out.RemoteMisses += c.stats.RemoteMisses
	}
	return out
}
