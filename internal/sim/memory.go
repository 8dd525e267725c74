package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Memory is the simulated shared memory: a flat, word-granularity store
// addressed by byte addresses. All shared mutable state that participates in
// synchronization must live here so that transactional buffering, rollback
// and conflict detection operate on real data rather than annotations.
//
// Addresses are 8-byte aligned words; cache-line mapping (64 B) is derived
// from the address, so allocation layout controls false sharing exactly as
// on real hardware.
//
// Memory additionally provides an interning table for host-language objects
// (strings, slices, immutable records): a Go value can be registered once
// and referenced from simulated words by its handle. Handles are append-only
// so transactional rollback can never corrupt the table.
type Memory struct {
	words []uint64
	brk   Addr // bump pointer, 8-aligned
	objs  []any
	free  map[int][]Addr // size-class free lists (bytes -> addresses)

	// layout is the placement policy applied to fresh (bump-pointer)
	// allocations; rng drives the randomized policy, seeded from the machine
	// seed so placement is deterministic per configuration. Recycled blocks
	// keep their original placement — only where the bump pointer lands is a
	// policy decision, exactly like a real allocator's arena layout.
	layout layoutKind
	rng    *rand.Rand
}

// The allocator-placement axis, after Dice et al.'s malloc-placement study:
// address layout alone redistributes lines over cache sets, and with an
// L1-tracked HTM that redistribution converts directly into capacity aborts.
// packed is today's bump allocator (dense, naturally striding across sets);
// randomized starts every fresh allocation on a random set, modeling an
// allocator with per-size arenas at arbitrary offsets; colliding starts
// every fresh allocation on set 0, the worst-case index imbalance.
type layoutKind uint8

const (
	layoutPacked layoutKind = iota
	layoutRandomized
	layoutColliding
)

// LayoutNames lists the valid Config.Layout spellings, default first.
func LayoutNames() []string { return []string{"packed", "randomized", "colliding"} }

// ParseLayout resolves a placement-policy name; "" selects packed.
func ParseLayout(name string) (layoutKind, error) {
	switch name {
	case "", "packed":
		return layoutPacked, nil
	case "randomized":
		return layoutRandomized, nil
	case "colliding":
		return layoutColliding, nil
	}
	return 0, fmt.Errorf("sim: unknown memory layout %q (valid: packed, randomized, colliding)", name)
}

// NewMemory creates an empty memory with the default packed layout. Address 0
// is reserved as the nil address: allocations never return it.
func NewMemory() *Memory { return newMemory("", 0) }

// newMemory creates an empty memory with the given placement policy; the
// layout name must already have passed Config.Validate.
func newMemory(layout string, seed int64) *Memory {
	kind, err := ParseLayout(layout)
	if err != nil {
		panic(err) // Config.Validate screens layout names before construction
	}
	m := &Memory{
		words:  make([]uint64, 64),
		brk:    64, // keep the first line unused so 0 is never a valid address
		objs:   make([]any, 1),
		free:   make(map[int][]Addr),
		layout: kind,
	}
	if kind == layoutRandomized {
		m.rng = rand.New(rand.NewSource(seed ^ 0x6c61796f7574)) // "layout"
	}
	return m
}

// placeFresh applies the placement policy to the bump pointer before a fresh
// allocation. packed does nothing — the default layout is byte-for-byte the
// historical allocator.
func (m *Memory) placeFresh() {
	switch m.layout {
	case layoutRandomized:
		m.brk = (m.brk + LineSize - 1) &^ (LineSize - 1)
		m.brk += Addr(m.rng.Intn(cacheSets)) * LineSize
	case layoutColliding:
		const setStride = cacheSets * LineSize
		m.brk = (m.brk + setStride - 1) &^ (setStride - 1)
	}
}

// grow ensures the backing store covers word index idx. It returns without
// reallocating when the store is already large enough (the common case — it
// runs on every allocation) and otherwise at least doubles, so the number of
// copies stays logarithmic in the final footprint.
func (m *Memory) grow(idx uint64) {
	n := uint64(len(m.words))
	if idx < n {
		return
	}
	for n <= idx {
		n *= 2
	}
	nw := make([]uint64, n)
	copy(nw, m.words)
	m.words = nw
}

func (m *Memory) read(a Addr) uint64 {
	i := uint64(a >> 3)
	if a&7 != 0 {
		panic(fmt.Sprintf("sim: misaligned read at %#x", a))
	}
	if i >= uint64(len(m.words)) {
		return 0
	}
	return m.words[i]
}

func (m *Memory) write(a Addr, v uint64) {
	i := uint64(a >> 3)
	if a&7 != 0 {
		panic(fmt.Sprintf("sim: misaligned write at %#x", a))
	}
	if i >= uint64(len(m.words)) {
		m.grow(i)
	}
	m.words[i] = v
}

// ReadRaw reads a word without charging time — for setup, result
// verification, and transactional commit write-back.
func (m *Memory) ReadRaw(a Addr) uint64 { return m.read(a) }

// WriteRaw writes a word without charging time.
func (m *Memory) WriteRaw(a Addr, v uint64) { m.write(a, v) }

// Alloc reserves nBytes (rounded up to whole words) and returns the base
// address. The allocator is a bump allocator with per-size free lists; it is
// only called from simulated threads, which are serialized, so it needs no
// locking of its own. Allocation performed inside a transaction that later
// aborts simply leaks the block, matching the paper's "native memory
// management inside transactional regions" configuration.
func (m *Memory) Alloc(nBytes int) Addr {
	if nBytes <= 0 {
		nBytes = 8
	}
	nBytes = (nBytes + 7) &^ 7
	if lst := m.free[nBytes]; len(lst) > 0 {
		a := lst[len(lst)-1]
		m.free[nBytes] = lst[:len(lst)-1]
		for o := 0; o < nBytes; o += 8 {
			m.write(a+Addr(o), 0)
		}
		return a
	}
	m.placeFresh()
	a := m.brk
	m.brk += Addr(nBytes)
	m.grow(uint64(m.brk >> 3))
	return a
}

// AllocLine reserves nBytes starting on a fresh cache line, preventing false
// sharing with previously allocated data.
func (m *Memory) AllocLine(nBytes int) Addr {
	m.placeFresh()
	m.brk = (m.brk + LineSize - 1) &^ (LineSize - 1)
	a := m.brk
	nBytes = (nBytes + 7) &^ 7
	m.brk += Addr(nBytes)
	m.grow(uint64(m.brk >> 3))
	return a
}

// AllocArray reserves count words, each padded to stride bytes (stride must
// be a multiple of 8; use LineSize to give each element a private line).
func (m *Memory) AllocArray(count, stride int) Addr {
	if stride%8 != 0 {
		panic("sim: AllocArray stride must be a multiple of 8")
	}
	if stride >= LineSize {
		return m.AllocLine(count * stride)
	}
	return m.Alloc(count * stride)
}

// Free returns a block to its size-class free list.
func (m *Memory) Free(a Addr, nBytes int) {
	nBytes = (nBytes + 7) &^ 7
	m.free[nBytes] = append(m.free[nBytes], a)
}

// Intern registers a host-language object and returns its handle (>= 1).
func (m *Memory) Intern(v any) uint64 {
	m.objs = append(m.objs, v)
	return uint64(len(m.objs) - 1)
}

// Obj resolves a handle produced by Intern; handle 0 resolves to nil.
func (m *Memory) Obj(h uint64) any {
	if h == 0 {
		return nil
	}
	return m.objs[h]
}

// F2B converts a float64 to its word representation for storage in Memory.
func F2B(f float64) uint64 { return math.Float64bits(f) }

// B2F converts a stored word back to float64.
func B2F(b uint64) float64 { return math.Float64frombits(b) }

// I2B converts a signed integer to its word representation.
func I2B(i int64) uint64 { return uint64(i) }

// B2I converts a stored word back to a signed integer.
func B2I(b uint64) int64 { return int64(b) }
