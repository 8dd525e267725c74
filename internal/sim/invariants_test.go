package sim

import (
	"errors"
	"math/bits"
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
// way (a transactional mark that would resurrect on the next install) is
// reported.
func TestCacheAuditCatchesOrphanedMeta(t *testing.T) {
	m := New(invariantConfig())
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *Context) { c.Load(a) })
	line := LineOf(a)
	cache := m.caches[0]
	w := cache.lookup(line)
	cache.tags[setOf(line)][w] = 0 // invalidate without clearing meta
	cache.meta[setOf(line)][w] = 1 << metaWShift
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
// machine with distinct lines: 32768 cached lines, one directory word each.
// Each context then loads half of its neighbour's lines, evicting half of
// its own and leaving shared lines with two core bits. The audit must stay
// clean throughout, FlushCaches must zero every directory word, a line
// past the table's end must grow it and pass the audit, and a word naming a
// core that lacks the line must fail it.
func TestPresenceDirectoryAtScale(t *testing.T) {
	m := New(Config{Sockets: 8, Cores: 8, ThreadsPerCore: 1, Costs: DefaultCosts(), Seed: 1, Invariants: true})
	const perCache = cacheSets * cacheWays
	n := m.TotalCores()
	arr := m.Mem.AllocArray(n*perCache, LineSize)
	line := func(core, k int) Addr { return arr + Addr((core*perCache+k)*LineSize) }
	if len(m.pres) != 0 {
		t.Fatalf("directory starts with %d words, want 0 before any line is cached", len(m.pres))
	}

	m.Run(n, func(c *Context) {
		for k := 0; k < perCache; k++ {
			c.Load(line(c.ID(), k))
		}
	})
	last := int(line(n-1, perCache-1) >> 6)
	if len(m.pres) <= last || len(m.pres) > 2*(last+1) {
		t.Fatalf("after the fill the directory spans %d lines, want (%d, %d]", len(m.pres), last, 2*(last+1))
	}
	held := 0
	for _, mask := range m.pres {
		held += bits.OnesCount64(mask)
	}
	if held != n*perCache {
		t.Fatalf("after the fill the directory holds %d core bits, want %d", held, n*perCache)
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
	for i, mask := range m.pres {
		if mask != 0 {
			t.Fatalf("line %#x still names cores %#x after FlushCaches", Addr(i)<<6, mask)
		}
	}
	if err := m.VerifyCaches(); err != nil {
		t.Fatalf("audit after FlushCaches: %v", err)
	}

	// A line past the directory's end, cached by two cores: add grows the
	// table to cover it.
	span := len(m.pres)
	far := m.Mem.AllocArray(span*8, 8) + Addr(span*8-1)*8
	if int(far>>6) < span {
		t.Fatalf("line %#x lies inside the %d-line span", LineOf(far), span)
	}
	m.Run(2, func(c *Context) { c.Load(far) })
	if got, want := m.pres.get(LineOf(far)), uint64(1<<0|1<<1); got != want {
		t.Fatalf("line %#x past the %d-line span names cores %#x, want %#x", LineOf(far), span, got, want)
	}
	if err := m.VerifyCaches(); err != nil {
		t.Fatalf("audit after caching a line past the span: %v", err)
	}
	m.pres[LineOf(far)>>6] |= 1 << 5
	if err := m.VerifyCaches(); err == nil || !strings.Contains(err.Error(), "l1-presence") {
		t.Fatalf("audit of a directory word naming a core without the line = %v, want an l1-presence error", err)
	}
}
