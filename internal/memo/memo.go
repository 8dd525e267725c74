// Package memo is the persistent, content-addressed result store behind the
// experiment engine: any simulation cell whose (key, model fingerprint) pair
// was ever computed — in any prior process — is loaded from disk instead of
// re-simulated. It implements runner.Store.
//
// Correctness by construction, not by discipline:
//
//   - Records live under a directory named by the model fingerprint
//     (ModelFingerprint), which hashes everything that can change a cell's
//     virtual-cycle result: the resolved cost profile and machine
//     configuration, the process-wide run defaults (fault plan — chaos seed
//     and knobs — and cycle budgets), and a fingerprint of the simulator
//     code itself. Editing a cost table, the simulator, or the chaos seed
//     moves the store to a fresh directory; stale hits are impossible.
//   - The directory holds one append-only log, entries.log, of
//     self-describing records. Each record names its key, carries a CRC
//     over key and blob, a magic with the codec schema number, and a hash
//     of the result type's structural signature in front of a payload
//     compiled once per result type (codec.go). A bit-flipped,
//     schema-stale or reshaped-type record reads as invalid — the engine
//     recomputes and appends it again — never as a wrong value.
//   - A Store reads the log once, on its first Load, and indexes it by key;
//     a later miss reads only the bytes appended since. Bytes that name no
//     key are skipped to the next magic, so a damaged record never hides
//     the records after it, and a record that runs past the end of the log
//     with no magic after it is an append still in flight: a miss, read
//     again by the next refresh.
//   - Save appends one record with one write on an O_APPEND descriptor, so
//     processes sharing the directory never interleave records, and a kill
//     mid-append leaves a torn record that readers skip.
package memo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"

	"tsxhpc/internal/runner"
)

// schemaVersion is the record codec version. Bump it on any incompatible
// change to the codec or log layout: it is hashed into the fingerprint, so
// the cells are recomputed under a new directory, and an old record's
// magic no longer matches.
const schemaVersion = 3

// magic opens every record; a reader resynchronises on it after damage.
var magic = [8]byte{'T', 'S', 'X', 'M', 'E', 'M', 'O', schemaVersion}

// logName is the store's one file in its fingerprint directory.
const logName = "entries.log"

// Store is an on-disk result cache scoped to one model fingerprint. It is
// safe for concurrent use by any number of goroutines and cooperating
// processes: records are appended whole and verified on read.
type Store struct {
	dir         string
	fingerprint string
	log         string // dir/entries.log

	// mu guards the index and serializes this process's appends.
	mu sync.Mutex
	// index maps each key to the blob of its latest record (sigHash |
	// payload), or to "" when that record is damaged: the key is invalid
	// until a valid record for it is appended. Keys and blobs are
	// substrings of the log bytes one refresh read, so indexing a record
	// allocates nothing of its own.
	index map[runner.Key]string
	// off is how many log bytes the index covers; a refresh reads on from
	// there.
	off int64

	hits       atomic.Uint64
	misses     atomic.Uint64
	invalid    atomic.Uint64
	saveErrors atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir for the current
// model fingerprint. Call it after any sim.SetRunDefaults: the fingerprint
// captures the installed fault plan and cycle budgets, so a store opened
// before arming chaos would file records under the wrong model.
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
	return &Store{dir: d, fingerprint: fingerprint, log: filepath.Join(d, logName)}, nil
}

// Fingerprint reports the model fingerprint this store is scoped to.
func (s *Store) Fingerprint() string { return s.fingerprint }

// Dir reports the fingerprint-scoped directory that holds the log.
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

// Load implements runner.Store: it decodes the latest record for key into
// out (a *T) after checking the hash of T's type signature. It decodes in
// place: on StoreHit every field of *out is overwritten with the saved
// value, never merged with what *out held; on any other status *out is
// undefined (a payload that fails partway leaves it partly written). A
// damaged record, a reshaped type or an unreadable log is StoreInvalid —
// the engine recomputes and appends. A key with no record is StoreMiss.
func (s *Store) Load(key runner.Key, out any) runner.LoadStatus {
	blob, found := s.lookup(key)
	if !found {
		s.misses.Add(1)
		return runner.StoreMiss
	}
	rv := reflect.ValueOf(out)
	if blob == "" || rv.Kind() != reflect.Pointer || rv.IsNil() {
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	p, err := planFor(rv.Elem().Type())
	if err != nil || le64(blob) != p.hash {
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	if !p.decodeInto(blob[8:], rv.Elem()) {
		s.invalid.Add(1)
		return runner.StoreInvalid
	}
	s.hits.Add(1)
	return runner.StoreHit
}

// lookup returns the indexed blob for key, reading the log's new bytes
// first unless key already has a valid record. found is false when no
// record names key; an empty blob with found set is a damaged record or an
// unreadable log.
func (s *Store) lookup(key runner.Key) (blob string, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blob = s.index[key]; blob != "" {
		return blob, true
	}
	if err := s.refresh(); err != nil {
		return "", true
	}
	blob, found = s.index[key]
	return blob, found
}

// refresh indexes the bytes appended to the log since the last refresh.
// The caller holds s.mu.
func (s *Store) refresh() error {
	f, err := os.Open(s.log)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < s.off { // the log was cut or replaced: index it afresh
		s.index, s.off = nil, 0
	}
	if fi.Size() == s.off {
		return nil
	}
	buf := make([]byte, fi.Size()-s.off)
	n, err := f.ReadAt(buf, s.off)
	if err != nil && err != io.EOF {
		return err
	}
	buf = buf[:n]
	if s.index == nil {
		s.index = make(map[runner.Key]string, bytes.Count(buf, magic[:]))
	}
	s.off += int64(s.scan(buf, string(buf)))
	return nil
}

// scan indexes the records in buf, the log from s.off on, and returns how
// many bytes it consumed. log holds buf's bytes as a string: the checks
// read buf, and the index keeps substrings of log. A valid record sets its
// key's blob and a damaged one clears it; after either kind of damage the
// scan resumes at the next magic, since a damaged length field cannot be
// trusted. The scan stops before a record that runs past the end of buf
// with no magic after it (an append still in flight) and before a tail
// that may be the start of a magic.
func (s *Store) scan(buf []byte, log string) int {
	p := 0
	for p < len(buf) {
		if !bytes.HasPrefix(buf[p:], magic[:]) {
			next := nextMagic(buf, p)
			if next < 0 {
				return max(p, len(buf)-len(magic)+1)
			}
			p = next
			continue
		}
		key, blob, n, st := openRecord(buf[p:])
		// The key starts after the magic and its length; the blob ends
		// the record.
		at := p + len(magic) + 4
		switch st {
		case recValid:
			s.index[runner.Key(log[at:at+len(key)])] = log[p+n-len(blob) : p+n]
			p += n
			continue
		case recDamaged:
			s.index[runner.Key(log[at:at+len(key)])] = ""
		}
		next := nextMagic(buf, p)
		switch {
		case next >= 0:
			p = next
		case st == recShort:
			return p
		default:
			p += n
		}
	}
	return p
}

// nextMagic returns the offset of the first magic in buf after p, or -1.
func nextMagic(buf []byte, p int) int {
	i := bytes.Index(buf[p+1:], magic[:])
	if i < 0 {
		return -1
	}
	return p + 1 + i
}

// recState is what openRecord found at a magic.
type recState uint8

const (
	recValid   recState = iota // key and blob verified
	recDamaged                 // the key reads, the record fails a check
	recShort                   // the record runs past the end of the bytes
)

// sealRecord encodes v into a complete record image:
//
//	magic | len(key) | key | len(blob) | crc32(key | blob) | blob
//	blob = sigHash | payload
//
// where the lengths and the CRC are big-endian uint32s, sigHash is the
// plan's signature hash (little-endian) and payload is v in the plan's
// encoding. The CRC covers the key as well as the blob: a record in a
// shared log is found by the key it stores, so a flipped key bit must
// fail the check rather than file the blob under another key.
func sealRecord(key runner.Key, p *plan, v reflect.Value) []byte {
	b := append(make([]byte, 0, 512), magic[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	head := len(b)
	b = append(b, make([]byte, 8)...) // len(blob), crc32(key | blob): filled below
	b = binary.LittleEndian.AppendUint64(b, p.hash)
	b = p.enc(b, v)
	blob := b[head+8:]
	binary.BigEndian.PutUint32(b[head:], uint32(len(blob)))
	binary.BigEndian.PutUint32(b[head+4:], crc32.Update(crc32.ChecksumIEEE(b[len(magic)+4:head]), crc32.IEEETable, blob))
	return b
}

// openRecord parses the record at the start of rec, which begins with the
// magic, and returns its key, its blob and its length in bytes. A damaged
// record still returns its key and length; a short one returns neither.
func openRecord(rec []byte) (key, blob []byte, n int, st recState) {
	rest := rec[len(magic):]
	if len(rest) < 4 || uint64(len(rest)-4) < uint64(binary.BigEndian.Uint32(rest))+8 {
		return nil, nil, 0, recShort
	}
	key, rest = rest[4:4+binary.BigEndian.Uint32(rest)], rest[4+binary.BigEndian.Uint32(rest):]
	blobLen, sum := binary.BigEndian.Uint32(rest), binary.BigEndian.Uint32(rest[4:])
	if uint64(len(rest)-8) < uint64(blobLen) {
		return nil, nil, 0, recShort
	}
	blob = rest[8 : 8+blobLen]
	n = len(rec) - len(rest) + 8 + int(blobLen)
	if blobLen < 8 || crc32.Update(crc32.ChecksumIEEE(key), crc32.IEEETable, blob) != sum {
		return key, nil, n, recDamaged
	}
	return key, blob, n, recValid
}

// Save implements runner.Store: it appends v's record to the log with one
// write on an O_APPEND descriptor. A value the codec cannot round-trip (see
// codec.go) is refused before the log is touched. Errors are counted and
// returned; the engine treats them as best-effort.
func (s *Store) Save(key runner.Key, v any) error {
	p, err := planFor(reflect.TypeOf(v))
	if err != nil {
		s.saveErrors.Add(1)
		return err
	}
	rec := sealRecord(key, p, reflect.ValueOf(v))
	s.mu.Lock()
	err = appendRecord(s.log, rec)
	s.mu.Unlock()
	if err != nil {
		s.saveErrors.Add(1)
		return fmt.Errorf("memo: %w", err)
	}
	return nil
}

// appendRecord writes rec to the end of the log at path in one write.
func appendRecord(path string, rec []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(rec)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
