package sim

import "testing"

// AddrMap fuzz operations: each is two bytes, an opcode and a key index.
const (
	amPlace byte = iota
	amFind
	amRemove
	amReset
	amOps
)

// amKey maps a key byte to a nonzero word address.
func amKey(b byte) Addr { return Addr(b)*8 + 8 }

// amKeysHomedAt returns the key bytes whose home slot in a size-slot table
// is slot, in ascending order.
func amKeysHomedAt(size, slot int) []byte {
	var t AddrMap[uint64]
	t.Init(size)
	var out []byte
	for b := 0; b < 256; b++ {
		if t.slot(amKey(byte(b))) == slot {
			out = append(out, byte(b))
		}
	}
	return out
}

// FuzzAddrMap drives random Place/Find/Remove/Reset sequences against a Go
// map and checks the table after every step: Len, every entry findable with
// its value, zero values in empty slots, unbroken probe chains, at least
// one empty slot, and the growth and shrink rules.
func FuzzAddrMap(f *testing.F) {
	// Deletion chains that wrap: four keys homed at the last slot of an
	// 8-slot table fill it and wrap to slots 0-2; removing the first one
	// must shift the wrapped entries back across the end of the slice.
	homed := amKeysHomedAt(8, 7)
	var wrap []byte
	for _, b := range homed[:4] {
		wrap = append(wrap, amPlace, b)
	}
	wrap = append(wrap, amRemove, homed[0], amFind, homed[1], amFind, homed[2],
		amFind, homed[3], amRemove, homed[2], amFind, homed[3])
	f.Add(uint8(1), wrap)

	// Growth across the 3/4 threshold: 4 → 8 → 16 slots.
	var grow []byte
	for b := byte(0); b < 8; b++ {
		grow = append(grow, amPlace, b, amPlace, b)
	}
	for b := byte(0); b < 8; b++ {
		grow = append(grow, amFind, b)
	}
	f.Add(uint8(0), grow)

	// A Reset that shrinks: 13 entries grow a 4-slot table to 32 slots,
	// past four times its start, so Reset goes back to 4.
	var shrink []byte
	for b := byte(0); b < 13; b++ {
		shrink = append(shrink, amPlace, b)
	}
	shrink = append(shrink, amReset, 0, amPlace, 1, amFind, 1, amFind, 2)
	f.Add(uint8(0), shrink)

	f.Fuzz(func(t *testing.T, sizeLog uint8, ops []byte) {
		size := 4 << (sizeLog % 3)
		var tab AddrMap[uint64]
		tab.Init(size)
		model := map[Addr]uint64{}
		for step := 0; step+1 < len(ops); step += 2 {
			k := amKey(ops[step+1])
			v := uint64(step + 1)
			slots, n := len(tab.Keys), tab.Len()
			switch ops[step] % amOps {
			case amPlace:
				i, inserted := tab.Place(k)
				if _, had := model[k]; inserted == had {
					t.Fatalf("step %d: Place(%#x) inserted=%v with key present=%v", step, k, inserted, had)
				}
				if inserted && tab.Vals[i] != 0 {
					t.Fatalf("step %d: Place(%#x) inserted over value %d", step, k, tab.Vals[i])
				}
				want := slots
				if n >= slots-slots/4 {
					want = 2 * slots
				}
				if len(tab.Keys) != want {
					t.Fatalf("step %d: Place at %d/%d entries left %d slots, want %d", step, n, slots, len(tab.Keys), want)
				}
				tab.Vals[i] = v
				model[k] = v
			case amFind:
				i := tab.Find(k)
				if _, had := model[k]; had != (i >= 0) {
					t.Fatalf("step %d: Find(%#x) = %d with key present=%v", step, k, i, had)
				}
			case amRemove:
				if i := tab.Find(k); i >= 0 {
					tab.Remove(i)
					delete(model, k)
				}
			case amReset:
				tab.Reset()
				clear(model)
				want := slots
				if slots > 4*size {
					want = size
				}
				if len(tab.Keys) != want {
					t.Fatalf("step %d: Reset of %d slots left %d, want %d", step, slots, len(tab.Keys), want)
				}
			}
			checkAddrMap(t, step, &tab, model)
		}
	})
}

func checkAddrMap(t *testing.T, step int, tab *AddrMap[uint64], model map[Addr]uint64) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("step %d: Len = %d, want %d", step, tab.Len(), len(model))
	}
	mask := len(tab.Keys) - 1
	used := 0
	for j, k := range tab.Keys {
		if k == 0 {
			if tab.Vals[j] != 0 {
				t.Fatalf("step %d: empty slot %d holds value %d", step, j, tab.Vals[j])
			}
			continue
		}
		used++
		// Every slot from k's home up to j must be occupied, or Find
		// would stop short of it.
		for s := tab.slot(k); s != j; s = (s + 1) & mask {
			if tab.Keys[s] == 0 {
				t.Fatalf("step %d: key %#x at slot %d, but slot %d on its probe chain is empty", step, k, j, s)
			}
		}
	}
	if used != len(model) || used == len(tab.Keys) {
		t.Fatalf("step %d: %d occupied of %d slots, model holds %d", step, used, len(tab.Keys), len(model))
	}
	for k, v := range model {
		i := tab.Find(k)
		if i < 0 || tab.Keys[i] != k || tab.Vals[i] != v {
			t.Fatalf("step %d: Find(%#x) = %d, want its entry with value %d", step, k, i, v)
		}
	}
}
