package memo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"sync"
)

// The entry codec is a compact binary encoding compiled once per Go type.
// Values are written field by field with no type descriptors in the stream:
// the type's structural signature (TypeSig) is hashed into every entry
// instead, so a reader whose type differs in any way refuses the entry
// before decoding a byte of it.
//
//	bool            one byte, 0 or 1
//	int kinds       zigzag varint
//	uint kinds      varint
//	float32/64      the raw IEEE bits, little-endian (NaN, -0, ±Inf exact;
//	                a float32 signalling NaN comes back quiet)
//	string          varint length, bytes
//	array           the elements in order
//	slice, map      varint count+1 (0 is nil, so nil and empty differ),
//	                then the elements; map entries sorted by encoded key
//	struct          the fields in order
//
// Pointers, interfaces, chans, funcs, complex numbers, unexported struct
// fields and recursive types have no encoding: compiling a plan for a type
// that contains one fails, and Save reports the error.

// plan is the compiled codec of one Go type.
type plan struct {
	typ  reflect.Type
	sig  string // TypeSig(typ)
	hash uint64 // FNV-1a of sig, stored in every entry of this type
	*coder
}

// coder encodes and decodes one type. dec reads one value from r into v
// (which must be settable), overwriting every part of v it reaches, and
// returns the reader advanced past it; a malformed input returns it bad
// instead, with v partly written. The reader travels by value: behind an
// indirect call a pointer to it would escape, one allocation per decode.
type coder struct {
	min int // fewest bytes any value of the type encodes to
	enc func(b []byte, v reflect.Value) []byte
	dec func(r reader, v reflect.Value) reader
}

type planResult struct {
	p   *plan
	err error
}

// plans caches one planResult per reflect.Type for the life of the process.
var plans sync.Map

// planFor returns the cached plan for t, compiling it on first use.
func planFor(t reflect.Type) (*plan, error) {
	if t == nil {
		return nil, fmt.Errorf("memo: cannot encode a nil interface")
	}
	if pr, ok := plans.Load(t); ok {
		return pr.(planResult).p, pr.(planResult).err
	}
	var pr planResult
	if c, err := compile(t, map[reflect.Type]bool{}); err != nil {
		pr.err = fmt.Errorf("memo: cannot encode %s: %w", t, err)
	} else {
		sig := TypeSig(t)
		h := fnv.New64a()
		h.Write([]byte(sig))
		pr.p = &plan{typ: t, sig: sig, hash: h.Sum64(), coder: c}
	}
	plans.Store(t, pr)
	return pr.p, pr.err
}

// decodeInto decodes payload into v, a settable value of the plan's type,
// and reports whether payload is exactly one well-formed encoding. v is
// overwritten, never merged: every field, element and map is replaced. When
// ok is false v holds a partial value. A decoded string is a substring of
// payload, not a copy.
func (p *plan) decodeInto(payload string, v reflect.Value) (ok bool) {
	r := p.dec(reader{buf: payload}, v)
	return !r.bad && len(r.buf) == 0
}

// decode is decodeInto on a fresh value of the plan's type.
func (p *plan) decode(payload string) (v reflect.Value, ok bool) {
	v = reflect.New(p.typ).Elem()
	return v, p.decodeInto(payload, v)
}

func compile(t reflect.Type, open map[reflect.Type]bool) (*coder, error) {
	if open[t] {
		return nil, fmt.Errorf("recursive type %s", t)
	}
	open[t] = true
	defer delete(open, t)

	switch t.Kind() {
	case reflect.Bool:
		return &coder{min: 1,
			enc: func(b []byte, v reflect.Value) []byte {
				if v.Bool() {
					return append(b, 1)
				}
				return append(b, 0)
			},
			dec: func(r reader, v reflect.Value) reader {
				switch r.byte() {
				case 0:
					v.SetBool(false)
				case 1:
					v.SetBool(true)
				default:
					r.fail()
				}
				return r
			},
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &coder{min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) },
			dec: func(r reader, v reflect.Value) reader {
				x := r.varint()
				if v.OverflowInt(x) {
					r.fail()
					return r
				}
				v.SetInt(x)
				return r
			},
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &coder{min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) },
			dec: func(r reader, v reflect.Value) reader {
				x := r.uvarint()
				if v.OverflowUint(x) {
					r.fail()
					return r
				}
				v.SetUint(x)
				return r
			},
		}, nil
	case reflect.Float32:
		return &coder{min: 4,
			enc: func(b []byte, v reflect.Value) []byte {
				return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
			},
			dec: func(r reader, v reflect.Value) reader {
				if b, ok := r.bytes(4); ok {
					v.SetFloat(float64(math.Float32frombits(le32(b))))
				}
				return r
			},
		}, nil
	case reflect.Float64:
		return &coder{min: 8,
			enc: func(b []byte, v reflect.Value) []byte {
				return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
			},
			dec: func(r reader, v reflect.Value) reader {
				if b, ok := r.bytes(8); ok {
					v.SetFloat(math.Float64frombits(le64(b)))
				}
				return r
			},
		}, nil
	case reflect.String:
		return &coder{min: 1,
			enc: func(b []byte, v reflect.Value) []byte {
				b = binary.AppendUvarint(b, uint64(v.Len()))
				return append(b, v.String()...)
			},
			dec: func(r reader, v reflect.Value) reader {
				b, _ := r.bytes(r.uvarint())
				v.SetString(b)
				return r
			},
		}, nil
	case reflect.Array:
		elem, err := compile(t.Elem(), open)
		if err != nil {
			return nil, err
		}
		n := t.Len()
		return &coder{min: n * elem.min,
			enc: func(b []byte, v reflect.Value) []byte {
				for i := 0; i < n; i++ {
					b = elem.enc(b, v.Index(i))
				}
				return b
			},
			dec: func(r reader, v reflect.Value) reader {
				for i := 0; i < n && !r.bad; i++ {
					r = elem.dec(r, v.Index(i))
				}
				return r
			},
		}, nil
	case reflect.Slice:
		elem, err := compile(t.Elem(), open)
		if err != nil {
			return nil, err
		}
		if elem.min == 0 {
			return nil, fmt.Errorf("slice of zero-size %s", t.Elem())
		}
		return &coder{min: 1,
			enc: func(b []byte, v reflect.Value) []byte {
				if v.IsNil() {
					return append(b, 0)
				}
				b = binary.AppendUvarint(b, uint64(v.Len())+1)
				for i := 0; i < v.Len(); i++ {
					b = elem.enc(b, v.Index(i))
				}
				return b
			},
			dec: func(r reader, v reflect.Value) reader {
				n, isNil := r.count(elem.min)
				if isNil {
					v.SetZero()
					return r
				}
				s := reflect.MakeSlice(t, n, n)
				for i := 0; i < n && !r.bad; i++ {
					r = elem.dec(r, s.Index(i))
				}
				v.Set(s)
				return r
			},
		}, nil
	case reflect.Map:
		key, err := compile(t.Key(), open)
		if err != nil {
			return nil, err
		}
		elem, err := compile(t.Elem(), open)
		if err != nil {
			return nil, err
		}
		if key.min+elem.min == 0 {
			return nil, fmt.Errorf("map of zero-size entries %s", t)
		}
		type entry struct {
			key []byte
			val reflect.Value
		}
		return &coder{min: 1,
			enc: func(b []byte, v reflect.Value) []byte {
				if v.IsNil() {
					return append(b, 0)
				}
				b = binary.AppendUvarint(b, uint64(v.Len())+1)
				ents := make([]entry, 0, v.Len())
				for it := v.MapRange(); it.Next(); {
					ents = append(ents, entry{key.enc(nil, it.Key()), it.Value()})
				}
				slices.SortFunc(ents, func(x, y entry) int { return bytes.Compare(x.key, y.key) })
				for _, e := range ents {
					b = append(b, e.key...)
					b = elem.enc(b, e.val)
				}
				return b
			},
			dec: func(r reader, v reflect.Value) reader {
				n, isNil := r.count(key.min + elem.min)
				if isNil {
					v.SetZero()
					return r
				}
				m := reflect.MakeMapWithSize(t, n)
				k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
				for i := 0; i < n; i++ {
					r = key.dec(r, k)
					r = elem.dec(r, e)
					if r.bad {
						return r
					}
					m.SetMapIndex(k, e)
					if m.Len() != i+1 { // a repeated key
						r.fail()
						return r
					}
				}
				v.Set(m)
				return r
			},
		}, nil
	case reflect.Struct:
		fields := make([]*coder, t.NumField())
		min := 0
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, fmt.Errorf("unexported field %s.%s", t, f.Name)
			}
			c, err := compile(f.Type, open)
			if err != nil {
				return nil, err
			}
			fields[i] = c
			min += c.min
		}
		return &coder{min: min,
			enc: func(b []byte, v reflect.Value) []byte {
				for i, c := range fields {
					b = c.enc(b, v.Field(i))
				}
				return b
			},
			dec: func(r reader, v reflect.Value) reader {
				for i, c := range fields {
					if r.bad {
						return r
					}
					r = c.dec(r, v.Field(i))
				}
				return r
			},
		}, nil
	}
	return nil, fmt.Errorf("unsupported kind %s (%s)", t.Kind(), t)
}

// reader consumes an encoded payload. Every read is bounds-checked against
// the bytes remaining; the first failure marks the reader bad and empties
// it, so later reads fail fast and decoders need not check each step. It
// reads a string, so the strings it returns share the payload's bytes.
type reader struct {
	buf string
	bad bool
}

func (r *reader) fail() { r.bad, r.buf = true, "" }

func (r *reader) byte() byte {
	if len(r.buf) == 0 {
		r.fail()
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// bytes returns the next n bytes, or marks the reader bad when fewer
// remain.
func (r *reader) bytes(n uint64) (string, bool) {
	if n > uint64(len(r.buf)) {
		r.fail()
		return "", false
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b, true
}

// uvarint reads a varint as binary.Uvarint would from the same bytes.
func (r *reader) uvarint() uint64 {
	var x uint64
	var shift uint
	for i := 0; i < len(r.buf) && i < binary.MaxVarintLen64; i++ {
		c := r.buf[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break // overflows 64 bits
			}
			r.buf = r.buf[i+1:]
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
	r.fail()
	return 0
}

// varint reads a zigzag varint as binary.Varint would from the same bytes.
func (r *reader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// le32 and le64 read little-endian integers from the start of b.
func le32(b string) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b string) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// count reads a slice or map header whose elements encode to at least min
// bytes each. A count the remaining bytes cannot hold is refused before
// anything is allocated for it.
func (r *reader) count(min int) (n int, isNil bool) {
	c := r.uvarint()
	if c == 0 {
		return 0, true
	}
	if c-1 > uint64(len(r.buf)/min) {
		r.fail()
		return 0, true
	}
	return int(c - 1), false
}
