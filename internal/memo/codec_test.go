package memo

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"tsxhpc/internal/probe"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/tm"
)

func mustPlan(tb testing.TB, v any) *plan {
	tb.Helper()
	p, err := planFor(reflect.TypeOf(v))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func encode(p *plan, v reflect.Value) []byte { return p.enc(nil, v) }

// lengthsWithin reports whether every slice and map reachable from v holds
// at most limit elements.
func lengthsWithin(v reflect.Value, limit int) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Len() > limit {
			return false
		}
		for i := 0; i < v.Len(); i++ {
			if !lengthsWithin(v.Index(i), limit) {
				return false
			}
		}
	case reflect.Map:
		if v.Len() > limit {
			return false
		}
		for it := v.MapRange(); it.Next(); {
			if !lengthsWithin(it.Key(), limit) || !lengthsWithin(it.Value(), limit) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !lengthsWithin(v.Field(i), limit) {
				return false
			}
		}
	}
	return true
}

// FuzzDecode feeds arbitrary payloads to the plans of the catalog's
// richest result type and of a map. Decoding must never panic; an accepted
// payload must decode to a value whose slices and maps are no longer than
// the payload, and that re-encodes and decodes to an equal value.
func FuzzDecode(f *testing.F) {
	probed := mustPlan(f, stamp.ProbedResult{})
	counts := mustPlan(f, map[string]int(nil))
	f.Add(encode(probed, reflect.ValueOf(stamp.ProbedResult{
		Result: stamp.Result{Workload: "kmeans", Mode: tm.TSX, Threads: 8, Cycles: 1 << 30, AbortRate: 12.5},
		Probes: probe.Snapshot{
			Counters: []probe.CounterVal{{Name: "htm.starts", Value: 3}},
			Hists:    []probe.HistVal{{Name: "h", Buckets: []uint64{}, Count: 1}},
		},
	})))
	f.Add(encode(counts, reflect.ValueOf(map[string]int{"a": 1, "bb": -2})))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []*plan{probed, counts} {
			v, ok := p.decode(string(data))
			if !ok {
				continue
			}
			if !lengthsWithin(v, len(data)) {
				t.Fatalf("%s: a slice or map outgrew its %d-byte payload", p.typ, len(data))
			}
			again := encode(p, v)
			w, ok := p.decode(string(again))
			if !ok {
				t.Fatalf("%s: re-encoding of an accepted payload does not decode", p.typ)
			}
			if !bytes.Equal(encode(p, w), again) {
				t.Fatalf("%s: encoding is not stable across a round trip", p.typ)
			}
			a, b := v.Interface(), w.Interface()
			if pr, ok := a.(stamp.ProbedResult); ok && math.IsNaN(pr.AbortRate) {
				// NaN is never DeepEqual to itself; the bytes compared above.
				a, b = clearRate(pr), clearRate(b.(stamp.ProbedResult))
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: round trip mismatch:\n%#v\n%#v", p.typ, a, b)
			}
		}
	})
}

func clearRate(r stamp.ProbedResult) stamp.ProbedResult {
	r.AbortRate = 0
	return r
}

// TestDecodeRejectsMalformed covers each way a payload can be refused.
func TestDecodeRejectsMalformed(t *testing.T) {
	type small struct {
		B bool
		I int8
	}
	cases := []struct {
		name    string
		v       any
		payload []byte
	}{
		{"empty", small{}, nil},
		{"bool byte 2", small{}, []byte{2, 0}},
		{"int8 overflow", small{}, []byte{0, 0x80, 0x02}},
		{"trailing byte", small{}, []byte{1, 2, 0}},
		{"bad varint", uint64(0), bytes.Repeat([]byte{0xff}, 11)},
		{"uint8 overflow", uint8(0), []byte{0x80, 0x02}},
		{"short string", "", []byte{5, 'a'}},
		{"short float", 0.0, []byte{1, 2, 3}},
		{"short float32", float32(0), []byte{1, 2, 3}},
		{"slice count past end", []uint64(nil), []byte{4, 1, 2}},
		{"repeated map key", map[string]int(nil), []byte{3, 1, 'a', 2, 1, 'a', 4}},
		{"map entry cut short", map[string]int(nil), []byte{2, 1, 'a'}},
		{"array cut short", [3]uint64{}, []byte{1, 2}},
	}
	for _, c := range cases {
		if _, ok := mustPlan(t, c.v).decode(string(c.payload)); ok {
			t.Errorf("%s: payload %x accepted", c.name, c.payload)
		}
	}
}

// TestDecodeRejectsOversizedCounts: a count header the remaining bytes
// cannot hold is refused before anything is allocated for it.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	// The payloads are strings before the measured closures start, so
	// the counts below are the decoder's alone.
	huge, null := string([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}), string([]byte{0})
	for _, v := range []any{[]probe.HistVal(nil), map[string]int(nil)} {
		p := mustPlan(t, v)
		// Decoding a nil allocates only the decoder's fixed overhead.
		base := testing.AllocsPerRun(20, func() { p.decode(null) })
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := p.decode(huge); ok {
				t.Fatalf("%s: oversized count accepted", p.typ)
			}
		})
		if allocs > base {
			t.Errorf("%s: refusing an oversized count took %.0f allocs, decoding nil %.0f", p.typ, allocs, base)
		}
	}
}

// TestReaderVarintsMatchBinary: the reader's varints read what
// encoding/binary reads from the same bytes, and fail where it fails: on
// every prefix of the encodings of edge values, on eleven continuation
// bytes, and on a tenth byte that overflows 64 bits.
func TestReaderVarintsMatchBinary(t *testing.T) {
	inputs := [][]byte{nil, bytes.Repeat([]byte{0xff}, 11), append(bytes.Repeat([]byte{0xff}, 9), 2)}
	for _, x := range []uint64{0, 1, 127, 128, 300, math.MaxUint32, math.MaxInt64, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, x)
		for i := range enc {
			inputs = append(inputs, enc[:i+1])
		}
		inputs = append(inputs, append(enc, 7))
	}
	for _, in := range inputs {
		ux, un := binary.Uvarint(in)
		r := reader{buf: string(in)}
		if got := r.uvarint(); r.bad != (un <= 0) || !r.bad && (got != ux || len(r.buf) != len(in)-un) {
			t.Errorf("uvarint(%x) = %d, %d bytes left, bad %v; binary.Uvarint = %d, %d read", in, got, len(r.buf), r.bad, ux, un)
		}
		x, n := binary.Varint(in)
		r = reader{buf: string(in)}
		if got := r.varint(); r.bad != (n <= 0) || !r.bad && (got != x || len(r.buf) != len(in)-n) {
			t.Errorf("varint(%x) = %d, %d bytes left, bad %v; binary.Varint = %d, %d read", in, got, len(r.buf), r.bad, x, n)
		}
	}
}

// TestEncodingIsDeterministic: map entries are written in key order, so
// equal maps always encode to equal bytes.
func TestEncodingIsDeterministic(t *testing.T) {
	p := mustPlan(t, map[string]int(nil))
	m := map[string]int{}
	for i := 0; i < 64; i++ {
		m[string(rune('A'+i))] = i
	}
	first := encode(p, reflect.ValueOf(m))
	for i := 0; i < 20; i++ {
		if !bytes.Equal(encode(p, reflect.ValueOf(m)), first) {
			t.Fatal("one map encoded to two different byte strings")
		}
	}
}
