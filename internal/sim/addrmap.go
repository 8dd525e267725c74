package sim

// AddrMap is an open-addressing hash table keyed by simulated address. It
// backs the engine's sparse address-keyed structures: the HTM conflict
// directory and speculative write buffer, and the TL2 write set. (The
// line-presence directory is dense, one word per simulated line, so it is
// a flat slice instead; see presence.go.) Go's built-in map costs a hash,
// a bucket walk and (for the per-transaction tables) a full clear on every
// attempt; this table keeps keys and values in two flat slices with linear
// probing — one multiply-shift hash, then sequential memory.
//
// A zero key marks an empty slot, so no occupancy metadata is needed:
// address 0 never occurs (simulated memory reserves the first line; Alloc
// starts at 64). Empty slots always hold V's zero value. Deletion shifts
// later chain members back into the hole, so probe chains stay
// tombstone-free however many keys churn through the table.
//
// Keys and Vals are exported for in-place updates through the slot index
// Find and Place return, and for sweeps (skip zero keys). The slot layout
// is a pure function of the operation sequence, so sweeps visit entries in
// a deterministic order.
type AddrMap[V any] struct {
	Keys  []Addr
	Vals  []V
	n     int
	shift uint // 64 - log2(len(Keys))
	min   int  // size Init was given; Reset shrinks back to it
}

// Init empties the table and sizes it to size slots (a power of two).
func (t *AddrMap[V]) Init(size int) {
	t.min = size
	t.alloc(size)
}

func (t *AddrMap[V]) alloc(size int) {
	t.Keys = make([]Addr, size)
	t.Vals = make([]V, size)
	t.n = 0
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// slot is a's home slot: Fibonacci multiplicative hashing, top bits.
func (t *AddrMap[V]) slot(a Addr) int {
	return int(uint64(a) * 0x9e3779b97f4a7c15 >> t.shift)
}

// Len reports the number of entries.
func (t *AddrMap[V]) Len() int { return t.n }

// Find returns the slot index holding a, or -1.
func (t *AddrMap[V]) Find(a Addr) int {
	mask := len(t.Keys) - 1
	for i := t.slot(a); ; i = (i + 1) & mask {
		switch t.Keys[i] {
		case a:
			return i
		case 0:
			return -1
		}
	}
}

// Place returns the slot index for a, inserting it with a zero value if
// absent, and reports whether it inserted. The table doubles before the
// probe once it is three quarters full.
func (t *AddrMap[V]) Place(a Addr) (int, bool) {
	if t.n >= len(t.Keys)-len(t.Keys)/4 {
		t.grow()
	}
	mask := len(t.Keys) - 1
	for i := t.slot(a); ; i = (i + 1) & mask {
		switch t.Keys[i] {
		case a:
			return i, false
		case 0:
			t.Keys[i] = a
			t.n++
			return i, true
		}
	}
}

// grow doubles the table, re-inserting entries in old-slot order.
func (t *AddrMap[V]) grow() {
	old, oldVals := t.Keys, t.Vals
	t.alloc(len(old) * 2)
	mask := len(t.Keys) - 1
	for i, k := range old {
		if k != 0 {
			s := t.slot(k)
			for t.Keys[s] != 0 {
				s = (s + 1) & mask
			}
			t.Keys[s], t.Vals[s] = k, oldVals[i]
			t.n++
		}
	}
}

// Remove deletes the entry at slot i with backward-shift compaction.
func (t *AddrMap[V]) Remove(i int) {
	mask := len(t.Keys) - 1
	t.n--
	j := i
	for {
		j = (j + 1) & mask
		if t.Keys[j] == 0 {
			break
		}
		// Shift Keys[j] into the hole if its probe chain spans it.
		if (j-t.slot(t.Keys[j]))&mask >= (j-i)&mask {
			t.Keys[i], t.Vals[i] = t.Keys[j], t.Vals[j]
			i = j
		}
	}
	var zero V
	t.Keys[i], t.Vals[i] = 0, zero
}

// Reset empties the table. A table that has grown past four times its Init
// size goes back to that size, so one outsized use (a pathological write
// set) does not make every later Reset pay for its capacity.
func (t *AddrMap[V]) Reset() {
	if len(t.Keys) > 4*t.min {
		t.alloc(t.min)
		return
	}
	clear(t.Keys)
	clear(t.Vals)
	t.n = 0
}
