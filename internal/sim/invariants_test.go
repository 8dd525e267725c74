package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// invariantConfig is DefaultConfig with the self-checks armed.
func invariantConfig() Config {
	cfg := Config{Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1, Invariants: true}
	return cfg
}

// expectInvariant runs f and asserts it panics with an *InvariantError whose
// Point matches.
func expectInvariant(t *testing.T, point string, f func()) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("no %s invariant violation raised", point)
		}
		ie, ok := p.(*InvariantError)
		if !ok {
			panic(p)
		}
		if ie.Point != point {
			t.Fatalf("violation point = %q, want %q (%v)", ie.Point, point, ie)
		}
		if !strings.Contains(ie.Error(), "invariant violated") {
			t.Fatalf("error text: %v", ie)
		}
	}()
	f()
}

// TestVerifyCachesCleanRun: a healthy workload passes both the inline
// install-time checks and the end-of-run sweep.
func TestVerifyCachesCleanRun(t *testing.T) {
	m := New(invariantConfig())
	arr := m.Mem.AllocArray(256, 8)
	m.Run(4, func(c *Context) {
		for i := 0; i < 400; i++ {
			a := arr + Addr(((i*7+c.ID()*13)%256)*8)
			if i%3 == 0 {
				c.Store(a, uint64(i))
			} else {
				c.Load(a)
			}
		}
	})
	if err := m.VerifyCaches(); err != nil {
		t.Fatalf("clean run failed the cache audit: %v", err)
	}
}

// TestCacheAuditCatchesDuplicateTag: planting the same line in two ways of a
// set — the corruption the inline install check and VerifyCaches exist for —
// is reported.
func TestCacheAuditCatchesDuplicateTag(t *testing.T) {
	m := New(invariantConfig())
	a := m.Mem.AllocLine(8)
	line := LineOf(a)
	m.Run(1, func(c *Context) { c.Load(a) })
	set := setOf(line)
	cache := m.caches[0]
	w2 := (cache.lookup(line) + 1) % cacheWays
	cache.tags[set][w2] = line
	err := m.VerifyCaches()
	if err == nil {
		t.Fatal("duplicate tag not caught")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) || ie.Point != "l1-set" || !strings.Contains(err.Error(), "both hold") {
		t.Fatalf("unexpected audit error: %v", err)
	}
}

// TestCacheAuditCatchesForeignTag: a way holding a line that maps to a
// different set (a corrupted tag word) is reported.
func TestCacheAuditCatchesForeignTag(t *testing.T) {
	m := New(invariantConfig())
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *Context) { c.Load(a) })
	line := LineOf(a)
	cache := m.caches[0]
	cache.tags[setOf(line)][cache.lookup(line)] = line + LineSize
	if err := m.VerifyCaches(); err == nil || !strings.Contains(err.Error(), "maps to set") {
		t.Fatalf("foreign tag not caught: %v", err)
	}
}

// TestCacheAuditCatchesOrphanedMeta: metadata surviving on an invalidated
// way (marks or excl state that would resurrect on the next install) is
// reported.
func TestCacheAuditCatchesOrphanedMeta(t *testing.T) {
	m := New(invariantConfig())
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *Context) { c.Load(a) })
	line := LineOf(a)
	cache := m.caches[0]
	w := cache.lookup(line)
	cache.tags[setOf(line)][w] = 0 // invalidate without clearing meta
	cache.meta[setOf(line)][w] = metaExcl
	if err := m.VerifyCaches(); err == nil || !strings.Contains(err.Error(), "meta plane") {
		t.Fatalf("orphaned meta not caught: %v", err)
	}
}

// TestInstallChecksFireInline: with Invariants armed, corruption is caught by
// the next install into the damaged set, not just by an explicit audit.
func TestInstallChecksFireInline(t *testing.T) {
	m := New(invariantConfig())
	a := m.Mem.AllocLine(8)
	line := LineOf(a)
	expectInvariant(t, "l1-set", func() {
		m.Run(1, func(c *Context) {
			c.Load(a)
			cache := m.caches[0]
			w2 := (cache.lookup(line) + 1) % cacheWays
			cache.tags[setOf(line)][w2] = line
			// Same set, different line: the install re-verifies the set.
			c.Load(a + cacheSets*LineSize)
		})
	})
}

// TestClockMonotonicityCheck: a virtual clock wrap is caught at the charge.
func TestClockMonotonicityCheck(t *testing.T) {
	m := New(invariantConfig())
	expectInvariant(t, "clock", func() {
		m.Run(1, func(c *Context) {
			c.clock = ^uint64(0) - 5
			c.Compute(100)
		})
	})
}

// TestTxMarkTracking: TxMarked reflects transactional access marks and
// ClearTxMarks removes exactly the caller's.
func TestTxMarkTracking(t *testing.T) {
	m := New(invariantConfig())
	a := m.Mem.AllocLine(8)
	line := LineOf(a)
	m.Run(1, func(c *Context) {
		if m.TxMarked(c, line, true) || m.TxMarked(c, line, false) {
			t.Error("marks present before any access")
		}
		c.TxAccess(a, false)
		if !m.TxMarked(c, line, false) || m.TxMarked(c, line, true) {
			t.Error("read mark wrong after transactional read")
		}
		c.TxAccess(a, true)
		if !m.TxMarked(c, line, true) {
			t.Error("write mark missing after transactional write")
		}
		m.ClearTxMarks(c, line)
		if m.TxMarked(c, line, true) || m.TxMarked(c, line, false) {
			t.Error("marks survived ClearTxMarks")
		}
	})
}

// TestPresenceDirectoryAtScale fills every way of every L1 of a 64-core
// machine with distinct lines: 32768 directory entries, past the 75% load
// threshold of the table's 32K-slot starting size, so it grows once. Each
// context then loads half of its neighbour's lines, evicting half of its own
// (backward-shift deletes through the grown table) and leaving shared
// entries with two core bits. The audit must stay clean throughout, and
// FlushCaches must leave the directory empty.
func TestPresenceDirectoryAtScale(t *testing.T) {
	m := New(Config{Sockets: 8, Cores: 8, ThreadsPerCore: 1, Costs: DefaultCosts(), Seed: 1, Invariants: true})
	const perCache = cacheSets * cacheWays
	n := m.TotalCores()
	// Contiguous lines hash almost collision-free, which would leave the
	// deletes nothing to shift: each core's eight runs of cacheSets lines
	// (one run fills one way of every set) sit at random distinct rows of a
	// region twice the size needed.
	rows := rand.New(rand.NewSource(1)).Perm(2 * n * cacheWays)
	arr := m.Mem.AllocArray(2*n*perCache, LineSize)
	line := func(core, k int) Addr {
		return arr + Addr((rows[core*cacheWays+k/cacheSets]*cacheSets+k%cacheSets)*LineSize)
	}
	if got := len(m.pres.Keys); got != 1<<15 {
		t.Fatalf("directory starts with %d slots, want %d", got, 1<<15)
	}

	m.Run(n, func(c *Context) {
		for k := 0; k < perCache; k++ {
			c.Load(line(c.ID(), k))
		}
	})
	if m.pres.Len() != n*perCache || len(m.pres.Keys) != 1<<16 {
		t.Fatalf("after the fill: %d entries in %d slots, want %d in %d (one growth)",
			m.pres.Len(), len(m.pres.Keys), n*perCache, 1<<16)
	}
	if err := m.VerifyCaches(); err != nil {
		t.Fatalf("audit after the fill: %v", err)
	}

	m.Run(n, func(c *Context) {
		for k := 0; k < perCache/2; k++ {
			c.Load(line((c.ID()+1)%n, k))
		}
	})
	if got, want := m.CacheStats().Evictions, uint64(n*perCache/2); got != want {
		t.Fatalf("evictions = %d, want %d", got, want)
	}
	if err := m.VerifyCaches(); err != nil {
		t.Fatalf("audit after the evictions: %v", err)
	}

	m.FlushCaches()
	if m.pres.Len() != 0 {
		t.Fatalf("directory holds %d entries after FlushCaches", m.pres.Len())
	}
	for i, k := range m.pres.Keys {
		if k != 0 || m.pres.Vals[i] != 0 {
			t.Fatalf("slot %d holds line %#x (cores %#x) after FlushCaches", i, k, m.pres.Vals[i])
		}
	}
	if err := m.VerifyCaches(); err != nil {
		t.Fatalf("audit after FlushCaches: %v", err)
	}
}
