// Package memo is the persistent, content-addressed result store behind the
// experiment engine: any simulation cell whose (key, model fingerprint) pair
// was ever computed — in any prior process — is loaded from disk instead of
// re-simulated. It implements runner.Store.
//
// Correctness by construction, not by discipline:
//
//   - Entries live under a directory named by the model fingerprint
//     (ModelFingerprint), which hashes everything that can change a cell's
//     virtual-cycle result: the resolved cost profile and machine
//     configuration, the process-wide run defaults (fault plan — chaos seed
//     and knobs — and cycle budgets), and a fingerprint of the simulator
//     code itself. Editing a cost table, the simulator, or the chaos seed
//     moves the store to a fresh directory; stale hits are impossible.
//   - Every entry is a CRC-checked, key-verified file whose magic carries
//     the codec schema number and whose payload is prefixed with a hash of
//     the result type's structural signature. The payload is a binary
//     encoding compiled once per result type (codec.go). A truncated,
//     bit-flipped, colliding, schema-stale or reshaped-type entry is
//     reported as invalid — the engine recomputes and rewrites it — never
//     decoded into a wrong value.
//   - Writes are write-temp-then-rename, so readers (including concurrent
//     processes sharing the directory) only ever observe complete entries.
package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"

	"tsxhpc/internal/runner"
)

// schemaVersion is the entry codec version. Bump it on any incompatible
// change to the codec or file layout; old entries then read as invalid
// and are rewritten.
const schemaVersion = 2

// magic marks a store entry file; a file without it is invalid outright.
var magic = [8]byte{'T', 'S', 'X', 'M', 'E', 'M', 'O', schemaVersion}

// Store is an on-disk result cache scoped to one model fingerprint. It is
// safe for concurrent use by any number of goroutines and cooperating
// processes: entry files are written atomically and verified on read.
type Store struct {
	dir         string
	fingerprint string

	hits       atomic.Uint64
	misses     atomic.Uint64
	invalid    atomic.Uint64
	saveErrors atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir for the current
// model fingerprint. Call it after any sim.SetRunDefaults: the fingerprint
// captures the installed fault plan and cycle budgets, so a store opened
// before arming chaos would file entries under the wrong model.
func Open(dir string) (*Store, error) {
	fp, err := ModelFingerprint()
	if err != nil {
		return nil, err
	}
	return OpenAt(dir, fp)
}

// OpenAt opens the store rooted at dir for an explicit fingerprint. Use
// Open unless you are testing fingerprint isolation directly.
func OpenAt(dir, fingerprint string) (*Store, error) {
	if dir == "" || fingerprint == "" {
		return nil, errors.New("memo: empty store directory or fingerprint")
	}
	d := filepath.Join(dir, fingerprint)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	return &Store{dir: d, fingerprint: fingerprint}, nil
}

// Fingerprint reports the model fingerprint this store is scoped to.
func (s *Store) Fingerprint() string { return s.fingerprint }

// Dir reports the fingerprint-scoped entry directory.
func (s *Store) Dir() string { return s.dir }

// Stats is a snapshot of store activity (this process only).
type Stats struct {
	Hits       uint64
	Misses     uint64
	Invalid    uint64
	SaveErrors uint64
}

// Stats returns a snapshot of store activity.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Invalid:    s.invalid.Load(),
		SaveErrors: s.saveErrors.Load(),
	}
}

// path maps a cell key to its content-addressed entry file.
func (s *Store) path(key runner.Key) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(h[:])[:40]+".memo")
}

// Load implements runner.Store: it decodes the entry for key into out
// (a *T) after verifying magic, stored key, checksum, and the hash of T's
// type signature. The value is decoded into a fresh T and stored into out
// only when the whole payload decodes, so out never holds a partial or
// merged value. Any verification failure is StoreInvalid — the engine
// recomputes and rewrites. A missing entry is StoreMiss.
func (s *Store) Load(key runner.Key, out any) runner.LoadStatus {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return runner.StoreMiss
		}
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	p, err := planFor(rv.Elem().Type())
	if err != nil {
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	payload, ok := openEntry(data, key, p.hash)
	if !ok {
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	v, ok := p.decode(payload)
	if !ok {
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	rv.Elem().Set(v)
	s.hits.Add(1)
	return runner.StoreHit
}

// Save implements runner.Store: it persists v under key atomically
// (write-temp-then-rename). A value the codec cannot round-trip (see
// codec.go) is refused before any file is written. Errors are counted and
// returned; the engine treats them as best-effort.
func (s *Store) Save(key runner.Key, v any) error {
	p, err := planFor(reflect.TypeOf(v))
	if err != nil {
		s.saveErrors.Add(1)
		return err
	}
	data := sealEntry(key, p, reflect.ValueOf(v))
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		s.saveErrors.Add(1)
		return fmt.Errorf("memo: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.path(key))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		s.saveErrors.Add(1)
		return fmt.Errorf("memo: %w", werr)
	}
	return nil
}

// sealEntry encodes v into a complete entry file image:
//
//	magic | len(key) | key | len(blob) | crc32(blob) | blob
//	blob = sigHash | payload
//
// where sigHash is the plan's signature hash (little-endian) and payload
// is v in the plan's encoding. The stored key guards against
// (astronomically unlikely) filename-hash collisions and makes entries
// self-describing for debugging.
func sealEntry(key runner.Key, p *plan, v reflect.Value) []byte {
	b := append(make([]byte, 0, 512), magic[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	head := len(b)
	b = append(b, make([]byte, 8)...) // len(blob), crc32(blob): filled below
	b = binary.LittleEndian.AppendUint64(b, p.hash)
	b = p.enc(b, v)
	blob := b[head+8:]
	binary.BigEndian.PutUint32(b[head:], uint32(len(blob)))
	binary.BigEndian.PutUint32(b[head+4:], crc32.ChecksumIEEE(blob))
	return b
}

// openEntry verifies a raw entry file image written for key by a type
// whose signature hashes to sigHash, and returns its payload.
func openEntry(data []byte, key runner.Key, sigHash uint64) ([]byte, bool) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, false
	}
	rest := data[len(magic):]
	storedKey, rest, ok := readChunk(rest)
	if !ok || string(storedKey) != string(key) {
		return nil, false
	}
	if len(rest) < 8 {
		return nil, false
	}
	blobLen := binary.BigEndian.Uint32(rest[:4])
	sum := binary.BigEndian.Uint32(rest[4:8])
	blob := rest[8:]
	if uint32(len(blob)) != blobLen || crc32.ChecksumIEEE(blob) != sum {
		return nil, false
	}
	if len(blob) < 8 || binary.LittleEndian.Uint64(blob) != sigHash {
		return nil, false
	}
	return blob[8:], true
}

func readChunk(data []byte) (chunk, rest []byte, ok bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(data[:4])
	if uint64(len(data)-4) < uint64(n) {
		return nil, nil, false
	}
	return data[4 : 4+n], data[4+n:], true
}

// TypeSig returns a structural signature of t: its name plus the recursive
// names and types of every field. Reshaping any result struct — adding,
// removing, reordering, or retyping a field, at any nesting depth — changes
// the signature, so old entries read as invalid instead of being decoded
// field by field into the wrong shape.
func TypeSig(t reflect.Type) string {
	var b bytes.Buffer
	writeTypeSig(&b, t, make(map[reflect.Type]bool))
	return b.String()
}

func writeTypeSig(b *bytes.Buffer, t reflect.Type, seen map[reflect.Type]bool) {
	if seen[t] {
		b.WriteString(t.String())
		return
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Struct:
		b.WriteString(t.String())
		b.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			b.WriteString(f.Name)
			b.WriteByte(' ')
			writeTypeSig(b, f.Type, seen)
			b.WriteByte(';')
		}
		b.WriteByte('}')
	case reflect.Pointer, reflect.Slice:
		b.WriteString(t.Kind().String())
		b.WriteByte('*')
		writeTypeSig(b, t.Elem(), seen)
	case reflect.Array:
		fmt.Fprintf(b, "[%d]", t.Len())
		writeTypeSig(b, t.Elem(), seen)
	case reflect.Map:
		b.WriteString("map[")
		writeTypeSig(b, t.Key(), seen)
		b.WriteByte(']')
		writeTypeSig(b, t.Elem(), seen)
	default:
		// Named basic types: include both the name and the underlying kind,
		// so redefining `type Mode int8` as int64 invalidates.
		fmt.Fprintf(b, "%s(%s)", t.String(), t.Kind())
	}
}
