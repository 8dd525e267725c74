package memo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"tsxhpc/internal/apps"
	"tsxhpc/internal/clomp"
	"tsxhpc/internal/core"
	"tsxhpc/internal/faults"
	"tsxhpc/internal/htm"
	"tsxhpc/internal/netapps"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/rmstm"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/tm"
)

func openTest(t *testing.T) *Store {
	t.Helper()
	s, err := OpenAt(t.TempDir(), "testfp")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// logBytes returns the store's log.
func logBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(s.Dir(), logName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeLog replaces the store's log with b.
func writeLog(t *testing.T, s *Store, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(s.Dir(), logName), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reopen returns a fresh Store on s's directory, which reads the log as a
// new process would.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	r, err := OpenAt(filepath.Dir(s.Dir()), s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRoundTrip checks that a realistic result struct (nested named types,
// fixed-size array) survives Save/Load bit-exactly.
func TestRoundTrip(t *testing.T) {
	s := openTest(t)
	in := stamp.Result{
		Workload: "bayes", Mode: tm.TSX, Threads: 4,
		Cycles: 123456789, AbortRate: 12.5, Fallbacks: 3, Events: 99,
	}
	in.AbortCauses[1] = 42
	if err := s.Save("stamp/bayes/tsx/4T", in); err != nil {
		t.Fatal(err)
	}
	var out stamp.Result
	if st := s.Load("stamp/bayes/tsx/4T", &out); st != runner.StoreHit {
		t.Fatalf("Load = %v, want hit", st)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
	if st := s.Load("stamp/bayes/tsx/8T", &out); st != runner.StoreMiss {
		t.Fatalf("unknown key Load = %v, want miss", st)
	}
}

type pair struct{ N, M uint64 }

// threeRecords saves cell/0, cell/1 and cell/2 in that order and returns
// the store, the values and the log's bounds of cell/1's record.
func threeRecords(t *testing.T) (s *Store, want [3]pair, lo, hi int) {
	t.Helper()
	s = openTest(t)
	var ends [3]int
	for i := range want {
		want[i] = pair{N: uint64(7 + i), M: uint64(9 * (i + 1))}
		if err := s.Save(runner.Key(fmt.Sprintf("cell/%d", i)), want[i]); err != nil {
			t.Fatal(err)
		}
		ends[i] = len(logBytes(t, s))
	}
	return s, want, ends[0], ends[1]
}

// TestCorruptionTolerance is the robustness contract: a truncated or
// bit-flipped record — at any offset — never reads as a wrong value, the
// records on either side of it still hit, and rewriting it restores hits.
// Each damaged log is read by a fresh Store, as a new process would.
func TestCorruptionTolerance(t *testing.T) {
	s, want, lo, hi := threeRecords(t)
	orig := logBytes(t, s)
	key := runner.Key("cell/1")
	// header is the length of cell/1's record before its blob: magic, key
	// length, key, blob length and CRC.
	header := len(magic) + 4 + len(key) + 8

	// check loads all three cells from log and returns cell/1's status;
	// a rewrite then restores cell/1.
	check := func(what string, log []byte) runner.LoadStatus {
		t.Helper()
		writeLog(t, s, log)
		r := reopen(t, s)
		var got pair
		st := r.Load(key, &got)
		if st == runner.StoreHit && got != want[1] {
			t.Fatalf("%s: hit with wrong value %+v", what, got)
		}
		for _, i := range []int{0, 2} {
			var n pair
			if st := r.Load(runner.Key(fmt.Sprintf("cell/%d", i)), &n); st != runner.StoreHit || n != want[i] {
				t.Fatalf("%s: neighbour cell/%d = %v, %+v", what, i, st, n)
			}
		}
		if err := r.Save(key, want[1]); err != nil {
			t.Fatal(err)
		}
		if st := r.Load(key, &got); st != runner.StoreHit || got != want[1] {
			t.Fatalf("%s: after rewrite: %v, %+v", what, st, got)
		}
		return st
	}

	// Flip every byte of the middle record in turn; no single-bit
	// corruption may produce a hit with a wrong value. A flip in the magic
	// or a length field leaves the record naming no key: a miss.
	for i := lo; i < hi; i++ {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		check(fmt.Sprintf("byte %d flip", i-lo), mut)
	}

	// Truncate the middle record to every length. Once its header reads,
	// it is invalid if its claimed end lies inside the log, and a miss if
	// it runs past the end: the log cannot tell that from an append still
	// in flight. Before its key reads it names no key at all.
	for n := 0; n < hi-lo; n++ {
		mut := append(append(append([]byte(nil), orig[:lo]...), orig[lo:lo+n]...), orig[hi:]...)
		st := check(fmt.Sprintf("truncation to %d bytes", n), mut)
		switch {
		case st == runner.StoreHit:
			t.Fatalf("truncation to %d bytes: Load = hit", n)
		case n >= header && hi > len(mut) && st != runner.StoreMiss:
			t.Fatalf("truncation to %d bytes (past EOF): Load = %v, want miss", n, st)
		case n >= header && hi <= len(mut) && st != runner.StoreInvalid:
			t.Fatalf("truncation to %d bytes: Load = %v, want invalid", n, st)
		case n < header-8 && st != runner.StoreMiss:
			t.Fatalf("truncation to %d bytes (key cut): Load = %v, want miss", n, st)
		}
	}
}

// TestKeyVerification: the CRC covers the stored key, so a record whose
// key has a flipped bit is invalid under the key it now names. With a
// blob-only CRC this flip turned the record for …/4T into a hit for …/6T.
func TestKeyVerification(t *testing.T) {
	s := openTest(t)
	in := stamp.Result{Workload: "bayes", Mode: tm.TSX, Threads: 4, Cycles: 123456789}
	if err := s.Save("stamp/bayes/tsx/4T", in); err != nil {
		t.Fatal(err)
	}
	log := logBytes(t, s)
	i := bytes.Index(log, []byte("4T"))
	log[i] ^= '4' ^ '6'
	writeLog(t, s, log)
	r := reopen(t, s)
	var out stamp.Result
	if st := r.Load("stamp/bayes/tsx/6T", &out); st != runner.StoreInvalid {
		t.Fatalf("key-flipped record Load(…/6T) = %v, want invalid", st)
	}
	if st := r.Load("stamp/bayes/tsx/4T", &out); st != runner.StoreMiss {
		t.Fatalf("key-flipped record Load(…/4T) = %v, want miss", st)
	}
}

// TestDamagedLengthResync: a record whose length field is corrupted does
// not hide the records after it, whether they were on disk when the store
// first read the log or appended later.
func TestDamagedLengthResync(t *testing.T) {
	s, want, lo, hi := threeRecords(t)
	orig := logBytes(t, s)
	keyLen := lo + len(magic)
	blobLen := keyLen + 4 + len("cell/1")
	for _, c := range []struct {
		name string
		at   int
		len  uint32
	}{
		{"key length past EOF", keyLen, 1 << 30},
		{"blob length past EOF", blobLen, 1 << 30},
		{"blob length into the next record", blobLen, 40},
		{"blob length short", blobLen, 9},
	} {
		mut := append([]byte(nil), orig...)
		binary.BigEndian.PutUint32(mut[c.at:], c.len)
		writeLog(t, s, mut)
		r := reopen(t, s)
		var got pair
		if st := r.Load("cell/2", &got); st != runner.StoreHit || got != want[2] {
			t.Fatalf("%s: record after the damage = %v, %+v", c.name, st, got)
		}
		// Drop the records after the damaged one. A reader holds it as an
		// append in flight while its claimed end lies past EOF, and must
		// still see the next record appended after it.
		writeLog(t, s, mut[:hi])
		r = reopen(t, s)
		if st := r.Load("cell/0", &got); st != runner.StoreHit || got != want[0] {
			t.Fatalf("%s: record before the damage = %v, %+v", c.name, st, got)
		}
		if err := s.Save("cell/3", pair{N: 3}); err != nil {
			t.Fatal(err)
		}
		if st := r.Load("cell/3", &got); st != runner.StoreHit || got != (pair{N: 3}) {
			t.Fatalf("%s: record appended after the damage = %v, %+v", c.name, st, got)
		}
	}
}

// TestHalfWrittenRecord: a record cut short at the end of the log is an
// append still in flight — a miss — and the same store hits once the rest
// of its bytes land.
func TestHalfWrittenRecord(t *testing.T) {
	s, want, lo, hi := threeRecords(t)
	orig := logBytes(t, s)
	for n := 1; n < hi-lo; n++ {
		writeLog(t, s, orig[:lo+n])
		r := reopen(t, s)
		var got pair
		if st := r.Load("cell/1", &got); st != runner.StoreMiss {
			t.Fatalf("%d of %d bytes written: Load = %v, want miss", n, hi-lo, st)
		}
		if st := r.Load("cell/0", &got); st != runner.StoreHit || got != want[0] {
			t.Fatalf("%d of %d bytes written: cell/0 = %v, %+v", n, hi-lo, st, got)
		}
		writeLog(t, s, orig[:hi])
		if st := r.Load("cell/1", &got); st != runner.StoreHit || got != want[1] {
			t.Fatalf("%d of %d bytes written, then the rest: Load = %v, %+v", n, hi-lo, st, got)
		}
	}
}

// TestLogReplaced: a log cut or replaced under an open store (a cache
// directory removed mid-run) is indexed afresh from its start.
func TestLogReplaced(t *testing.T) {
	s, want, _, _ := threeRecords(t)
	r := reopen(t, s)
	var got pair
	if st := r.Load("cell/2", &got); st != runner.StoreHit || got != want[2] {
		t.Fatalf("before the cut: cell/2 = %v, %+v", st, got)
	}
	if err := os.Remove(filepath.Join(s.Dir(), logName)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("cell/3", pair{N: 3}); err != nil {
		t.Fatal(err)
	}
	if st := r.Load("cell/3", &got); st != runner.StoreHit || got != (pair{N: 3}) {
		t.Fatalf("after the log was replaced: cell/3 = %v, %+v", st, got)
	}
}

// fuzzCell is the record type FuzzLog saves: a string and a slice make
// its payloads variable-length.
type fuzzCell struct {
	Name   string
	Cycles uint64
	Hist   []uint64
}

// fuzzCells are the records FuzzLog lays around its arbitrary bytes.
var fuzzCells = []fuzzCell{
	{Name: "bayes", Cycles: 1 << 40, Hist: []uint64{0, 3, 1}},
	{Name: "k", Cycles: 7},
	{Name: "intruder/tsx/8T", Hist: []uint64{}},
}

// FuzzLog puts arbitrary bytes before, inside and after valid records of
// one log and reads it with a fresh Store. A Load must never panic, every
// hit must equal the value saved under its key, and a record appended
// after the damage must hit.
func FuzzLog(f *testing.F) {
	seal := func(i int) []byte {
		p, err := planFor(reflect.TypeOf(fuzzCells[i]))
		if err != nil {
			f.Fatal(err)
		}
		return sealRecord(runner.Key(fmt.Sprintf("k/%d", i)), p, reflect.ValueOf(fuzzCells[i]))
	}
	recs := [][]byte{seal(0), seal(1), seal(2)}
	f.Add([]byte{}, []byte{}, []byte{}, uint16(0))
	f.Add([]byte("junk"), magic[:], magic[:5], uint16(9))
	f.Add(recs[1], recs[2][:20], append(magic[:], 0xff, 0xff, 0xff, 0xff), uint16(30))
	f.Fuzz(func(t *testing.T, pre, mid, post []byte, at uint16) {
		cut := int(at) % (len(recs[1]) + 1)
		var log []byte
		for _, b := range [][]byte{pre, recs[0], recs[1][:cut], mid, recs[1][cut:], recs[2], post} {
			log = append(log, b...)
		}
		dir := t.TempDir()
		s, err := OpenAt(dir, "fuzzfp")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(s.Dir(), logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		load := func(i int) runner.LoadStatus {
			var got fuzzCell
			st := s.Load(runner.Key(fmt.Sprintf("k/%d", i)), &got)
			if st == runner.StoreHit && !reflect.DeepEqual(got, fuzzCells[i]) {
				t.Fatalf("k/%d: hit with %+v, saved %+v", i, got, fuzzCells[i])
			}
			return st
		}
		for i := range fuzzCells {
			load(i)
		}
		if err := s.Save("k/0", fuzzCells[0]); err != nil {
			t.Fatal(err)
		}
		if st := load(0); st != runner.StoreHit {
			t.Fatalf("record appended after the fuzzed bytes: Load = %v", st)
		}
	})
}

// TestTypeSignatureGuard: an entry written as one type must not decode into
// a reshaped type, even one whose fields would decode without error.
func TestTypeSignatureGuard(t *testing.T) {
	type v1 struct {
		Cycles uint64
		Rate   float64
	}
	type v2 struct {
		Cycles uint64
		Rate   float32 // retyped field
	}
	s := openTest(t)
	if err := s.Save("cell", v1{Cycles: 10, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	var out v2
	if st := s.Load("cell", &out); st != runner.StoreInvalid {
		t.Fatalf("reshaped type Load = %v, want invalid", st)
	}
}

// TestFingerprintInvalidation is the staleness-impossible-by-construction
// contract: mutating any model input — a cost-table field, the machine
// topology, the chaos seed or knobs, the code — changes the fingerprint, so
// old entries are simply never looked up.
func TestFingerprintInvalidation(t *testing.T) {
	base := sim.DefaultConfig()
	ref := fingerprint(base, "code0")

	costs := base
	costs.Costs.Transfer++
	topo := base
	topo.Cores = 8
	budget := base
	budget.MaxCycles = 1
	chaos1, chaos2 := base, base
	chaos1.Faults = faults.Chaos(1)
	chaos2.Faults = faults.Chaos(2)
	knob := base
	cfg := faults.Chaos(1)
	cfg.StormLines = 64
	knob.Faults = cfg

	mutants := map[string]string{
		"costs field":  fingerprint(costs, "code0"),
		"topology":     fingerprint(topo, "code0"),
		"cycle budget": fingerprint(budget, "code0"),
		"chaos seed 1": fingerprint(chaos1, "code0"),
		"chaos seed 2": fingerprint(chaos2, "code0"),
		"chaos knob":   fingerprint(knob, "code0"),
		"code edit":    fingerprint(base, "code1"),
	}
	seen := map[string]string{ref: "base"}
	for name, fp := range mutants {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s fingerprint collides with %s (%s)", name, prev, fp)
		}
		seen[fp] = name
	}
	if fingerprint(base, "code0") != ref {
		t.Fatal("fingerprint is not deterministic")
	}
}

// TestModelFingerprint: the live fingerprint is computable in this
// environment (clean VCS stamp or readable executable) and stable within
// a process.
func TestModelFingerprint(t *testing.T) {
	a, err := ModelFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelFingerprint()
	if err != nil || a != b || a == "" {
		t.Fatalf("ModelFingerprint unstable: %q vs %q (%v)", a, b, err)
	}
}

// TestCodeFingerprintIgnoresWorkingDirectory: the code fingerprint names
// the running build, so moving into another tsxhpc module — one with
// different sources under internal/ — must not change it.
func TestCodeFingerprintIgnoresWorkingDirectory(t *testing.T) {
	here, err := computeCodeFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fake := t.TempDir()
	if err := os.WriteFile(filepath.Join(fake, "go.mod"), []byte("module tsxhpc\n\ngo 1.23\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(fake, "internal", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fake, "internal", "x", "x.go"), []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(fake); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	there, err := computeCodeFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if there != here {
		t.Fatalf("code fingerprint follows the working directory: %s in the checkout, %s in a fake module", here, there)
	}
}

// TestChaosSeedStoreIsolation runs the full stack: two stores opened for
// the fingerprints of two chaos seeds never share entries.
func TestChaosSeedStoreIsolation(t *testing.T) {
	dir := t.TempDir()
	open := func(seed int64) *Store {
		sim.SetRunDefaults(sim.RunDefaults{Faults: faults.Chaos(seed), StallCycles: 200_000_000})
		defer sim.SetRunDefaults(sim.RunDefaults{})
		fp, err := ModelFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenAt(dir, fp)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := open(1), open(2)
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Fatal("chaos seeds 1 and 2 share a fingerprint")
	}
	if err := s1.Save("cell", 42); err != nil {
		t.Fatal(err)
	}
	var got int
	if st := s2.Load("cell", &got); st != runner.StoreMiss {
		t.Fatalf("seed-2 store sees seed-1 entry: %v", st)
	}
}

// TestEngineIntegrationConcurrent exercises the real runner+memo pipeline
// under host concurrency (run with -race in CI): two engines share one
// store directory while many goroutines submit overlapping keys; every
// result must be correct, and a third engine must then serve everything
// from disk without executing a single job.
func TestEngineIntegrationConcurrent(t *testing.T) {
	dir := t.TempDir()
	newStore := func() *Store {
		s, err := OpenAt(dir, "fp")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	type result struct{ V int }
	const keys = 40
	var executions atomic.Int64
	runEngine := func(e *runner.Engine) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < keys; i++ {
					i := i
					key := runner.Key(fmt.Sprintf("cell/%d", i))
					v, err := runner.Do(e, key, func() (result, error) {
						executions.Add(1)
						return result{V: i * i}, nil
					})
					if err != nil || v.V != i*i {
						t.Errorf("cell %d = %+v, %v", i, v, err)
					}
				}
			}()
		}
		wg.Wait()
	}
	e1, e2 := runner.New(4), runner.New(4)
	e1.SetStore(newStore())
	e2.SetStore(newStore())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); runEngine(e1) }()
	go func() { defer wg.Done(); runEngine(e2) }()
	wg.Wait()
	// Concurrent engines may race to compute the same key before either
	// saved it, but never more than once per engine.
	if n := executions.Load(); n < keys || n > 2*keys {
		t.Fatalf("executions = %d, want between %d and %d", n, keys, 2*keys)
	}
	executions.Store(0)
	e3 := runner.New(4)
	e3.SetStore(newStore())
	runEngine(e3)
	if n := executions.Load(); n != 0 {
		t.Fatalf("warm engine executed %d jobs, want 0", n)
	}
	if st := e3.Stats(); st.CacheHits != keys || st.Executed != 0 {
		t.Fatalf("warm engine stats = %+v, want %d hits", st, keys)
	}
}

// TestLoadOverwritesDestination: Load decodes in place and replaces out
// wholesale, never merging. Zero fields, nil slices and nil maps in the
// stored value must come back as zero, nil and nil even when the
// destination held something else; populated slices and maps come back
// holding exactly the saved elements, not the destination's as well.
func TestLoadOverwritesDestination(t *testing.T) {
	type result struct {
		A, B uint64
		Arr  [2]string
		S    []int
		M    map[string]int
		Sub  struct{ S []string }
	}
	s := openTest(t)
	saved := []result{
		{A: 1},
		{A: 2, Arr: [2]string{"a", ""}, S: []int{1}, M: map[string]int{"a": 1, "b": 2}},
	}
	saved[1].Sub.S = []string{}
	for i, want := range saved {
		key := runner.Key(fmt.Sprintf("cell/%d", i))
		if err := s.Save(key, want); err != nil {
			t.Fatal(err)
		}
		out := result{A: 9, B: 9, Arr: [2]string{"x", "y"}, S: []int{9, 9, 9}, M: map[string]int{"x": 9, "a": 9}}
		out.Sub.S = []string{"x"}
		if st := s.Load(key, &out); st != runner.StoreHit {
			t.Fatalf("%s: Load = %v, want hit", key, st)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("%s: Load into a non-zero destination = %+v, want %+v", key, out, want)
		}
	}
}

// verifyOutcome mirrors cmd/verify's per-seed result, the catalog's only
// stored type with a map.
type verifyOutcome struct {
	Lines     string
	Bad       bool
	Txns      uint64
	Starts    uint64
	Aborts    uint64
	Fallbacks uint64
	TL2Aborts uint64
	Counts    map[string]int
}

// TestRoundTripCatalogTypes: every result type the experiment catalog
// stores comes back DeepEqual — nil and empty slices and maps included, so
// a warm run serves exactly what the cold run computed.
func TestRoundTripCatalogTypes(t *testing.T) {
	full := stamp.Result{Workload: "intruder", Mode: tm.TL2, Threads: 8, Cycles: 1 << 40,
		AbortRate: 37.25, AbortCauses: [htm.NumCauses]uint64{1, 2, 3}, Fallbacks: 4, Events: 5}
	snap := probe.Snapshot{
		Counters: []probe.CounterVal{{Name: "htm.starts", Value: 12}, {Name: "", Value: 0}},
		Hists:    []probe.HistVal{{Name: "tl2.readset", Buckets: []uint64{0, 3, 0, 1}, Count: 4, Sum: 9}},
	}
	cases := []struct {
		name string
		v    any
	}{
		{"stamp.Result", full},
		{"stamp.Result zero", stamp.Result{}},
		{"stamp.ProbedResult", stamp.ProbedResult{Result: full, Probes: snap}},
		{"stamp.ProbedResult nil slices", stamp.ProbedResult{Result: full}},
		{"stamp.ProbedResult empty slices", stamp.ProbedResult{Probes: probe.Snapshot{
			Counters: []probe.CounterVal{},
			Hists:    []probe.HistVal{{Name: "h", Buckets: []uint64{}}, {Name: "nil"}},
		}}},
		{"netapps.Result", netapps.Result{App: "netferret", Mode: core.ModeTSXAbort, Bytes: 1 << 33,
			ReadCycles: 77, Cycles: 99, Events: 3}},
		{"netapps.ScaleResult", netapps.ScaleResult{Cores: 64, Clients: 100000, Module: "global-lock",
			Bytes: 123, ReadCycles: 456, Cycles: 789, Events: 1011}},
		{"clomp.Result", clomp.Result{Cycles: 5, AbortRate: 0.125, Events: 6}},
		{"rmstm.Result", rmstm.Result{Workload: "kmeans", Scheme: rmstm.SGLScheme, Threads: 4,
			Cycles: 8, AbortRate: 1.5, Syscalls: 2, Events: 9}},
		{"apps.Result", apps.Result{Cycles: 10, AbortRate: 99.5, Events: 11}},
		{"verify outcome nil map", verifyOutcome{Lines: "seed 1 ok\n", Txns: 3}},
		{"verify outcome empty map", verifyOutcome{Bad: true, Counts: map[string]int{}}},
		{"verify outcome full map", verifyOutcome{Counts: map[string]int{"lost-update": 2, "dirty-read": -1, "": 0}}},
	}
	s := openTest(t)
	for i, c := range cases {
		key := runner.Key(fmt.Sprintf("case/%d", i))
		if err := s.Save(key, c.v); err != nil {
			t.Fatalf("%s: Save: %v", c.name, err)
		}
		out := reflect.New(reflect.TypeOf(c.v))
		if st := s.Load(key, out.Interface()); st != runner.StoreHit {
			t.Fatalf("%s: Load = %v, want hit", c.name, st)
		}
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, c.v) {
			t.Errorf("%s: round trip mismatch:\nin  %#v\nout %#v", c.name, c.v, got)
		}
	}
}

// TestRoundTripSpecialValues: floats come back bit for bit (NaN, -0, ±Inf)
// and integers at their extremes come back exactly.
func TestRoundTripSpecialValues(t *testing.T) {
	type extremes struct {
		NaN, NegZero, PosInf, NegInf float64
		Small                        float32
		MaxU                         uint64
		MinI                         int64
		MaxI8                        int8
	}
	in := extremes{
		NaN: math.NaN(), NegZero: math.Copysign(0, -1), PosInf: math.Inf(1), NegInf: math.Inf(-1),
		Small: math.SmallestNonzeroFloat32, MaxU: math.MaxUint64, MinI: math.MinInt64, MaxI8: math.MaxInt8,
	}
	s := openTest(t)
	if err := s.Save("cell", in); err != nil {
		t.Fatal(err)
	}
	var out extremes
	if st := s.Load("cell", &out); st != runner.StoreHit {
		t.Fatalf("Load = %v, want hit", st)
	}
	for _, f := range []struct {
		name    string
		in, out float64
	}{{"NaN", in.NaN, out.NaN}, {"-0", in.NegZero, out.NegZero}, {"+Inf", in.PosInf, out.PosInf}, {"-Inf", in.NegInf, out.NegInf}} {
		if math.Float64bits(f.in) != math.Float64bits(f.out) {
			t.Errorf("%s: bits %#x came back as %#x", f.name, math.Float64bits(f.in), math.Float64bits(f.out))
		}
	}
	// NaN is never DeepEqual to itself; its bits are checked above.
	in.NaN, out.NaN = 0, 0
	if in != out {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}

// TestSaveRefusesUnencodable: a value the codec cannot round-trip — a
// pointer, an interface, an unexported field, however deep — is refused
// with an error and counted, and writes nothing: not even an empty log.
func TestSaveRefusesUnencodable(t *testing.T) {
	type withPointer struct{ P *int }
	type withInterface struct{ I any }
	type withUnexported struct {
		Cycles uint64
		events uint64
	}
	type node struct{ Kids []node }
	type blank struct{ _ int }
	s := openTest(t)
	for i, v := range []any{
		withPointer{}, withInterface{I: 1}, withUnexported{events: 1}, nil,
		[]func(){}, make(chan int), complex(1, 2), uintptr(0), node{}, blank{},
		[]struct{}{}, map[[0]int]struct{}{}, struct{ M map[string]*int }{}, [2][]any{},
	} {
		if err := s.Save(runner.Key(fmt.Sprintf("cell/%d", i)), v); err == nil {
			t.Errorf("Save(%T) succeeded, want an error", v)
		}
		if got := s.Stats().SaveErrors; got != uint64(i+1) {
			t.Errorf("after Save(%T): SaveErrors = %d, want %d", v, got, i+1)
		}
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("refused saves left %d files in the store", len(ents))
	}
	var out withPointer
	if st := s.Load("cell/0", &out); st != runner.StoreMiss {
		t.Fatalf("Load of a refused save = %v, want miss", st)
	}
}

// TestLoadOnUnencodableTypeIsInvalid: an entry can never hit for a
// destination type the codec has no plan for, nor for a non-pointer out.
func TestLoadOnUnencodableTypeIsInvalid(t *testing.T) {
	s := openTest(t)
	if err := s.Save("cell", 1); err != nil {
		t.Fatal(err)
	}
	var p *int
	for _, out := range []any{&p, 0, (*int)(nil)} {
		if st := s.Load("cell", out); st != runner.StoreInvalid {
			t.Errorf("Load into %T = %v, want invalid", out, st)
		}
	}
}

// TestLoadAllocs ratchets the hit path: looking up and decoding an indexed
// stamp.Result record stays within a fixed allocation budget.
func TestLoadAllocs(t *testing.T) {
	s := openTest(t)
	in := stamp.Result{Workload: "bayes", Mode: tm.TSX, Threads: 4, Cycles: 123456789, AbortRate: 12.5}
	if err := s.Save("stamp/bayes/tsx/4T", in); err != nil {
		t.Fatal(err)
	}
	var out stamp.Result
	allocs := testing.AllocsPerRun(50, func() {
		if s.Load("stamp/bayes/tsx/4T", &out) != runner.StoreHit {
			t.Fatal("Load missed")
		}
	})
	if allocs > 16 {
		t.Fatalf("Load = %.0f allocs/op, want <= 16", allocs)
	}
}

// hitCell has every field kind whose decode could allocate per element:
// strings, a slice of strings and a map keyed by strings.
type hitCell struct {
	Name   string
	Sites  []string
	Counts map[string]uint64
	Cycles uint64
}

// hitSample returns a hitCell naming n sites.
func hitSample(n int) hitCell {
	c := hitCell{Name: "anatomy/intruder/tsx/8T", Counts: map[string]uint64{"htm/abort/conflict": 12, "tsx/site/global/fallbacks": 3}, Cycles: 1 << 33}
	for i := 0; i < n; i++ {
		c.Sites = append(c.Sites, fmt.Sprintf("tsx/site/%d", i))
	}
	return c
}

// TestLoadHitAllocs: a hit's strings share the bytes of the log, so a
// decode allocates for the slice and the map, and nothing per string: a
// record naming 64 sites costs what one naming 4 costs. The ceiling is the
// count since Load decodes in place with a reader that stays on the stack
// (8 when it decoded a fresh value; the copying decoder took 15 and 75).
func TestLoadHitAllocs(t *testing.T) {
	s := openTest(t)
	allocs := func(n int) float64 {
		key := runner.Key(fmt.Sprintf("sites/%d", n))
		in := hitSample(n)
		if err := s.Save(key, in); err != nil {
			t.Fatal(err)
		}
		var out hitCell
		if s.Load(key, &out) != runner.StoreHit || !reflect.DeepEqual(out, in) {
			t.Fatalf("%s: Load = %+v, saved %+v", key, out, in)
		}
		return testing.AllocsPerRun(50, func() { s.Load(key, &out) })
	}
	few, many := allocs(4), allocs(64)
	if many != few {
		t.Errorf("Load of 64 strings = %.0f allocs, of 4 strings %.0f: a string field allocates", many, few)
	}
	const ceiling = 6
	if few > ceiling {
		t.Errorf("Load = %.0f allocs/op, want <= %d", few, ceiling)
	}
}

// BenchmarkLoadHit is one warm hit on an indexed record, with no
// simulation in its set-up.
func BenchmarkLoadHit(b *testing.B) {
	s, err := OpenAt(b.TempDir(), "benchfp")
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Save("sites/16", hitSample(16)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out hitCell
		if s.Load("sites/16", &out) != runner.StoreHit {
			b.Fatal("Load missed")
		}
	}
}

// probedSample is a real probed STAMP cell, the largest entry the catalog
// stores.
func probedSample(tb testing.TB) stamp.ProbedResult {
	tb.Helper()
	r, err := stamp.ExecuteProbed("intruder", tm.TSX, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func BenchmarkStoreLoad(b *testing.B) {
	s, err := OpenAt(b.TempDir(), "benchfp")
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Save("anatomy/intruder/tsx/8T", probedSample(b)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out stamp.ProbedResult
		if s.Load("anatomy/intruder/tsx/8T", &out) != runner.StoreHit {
			b.Fatal("Load missed")
		}
	}
}

func BenchmarkStoreSave(b *testing.B) {
	s, err := OpenAt(b.TempDir(), "benchfp")
	if err != nil {
		b.Fatal(err)
	}
	v := probedSample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Save("anatomy/intruder/tsx/8T", v); err != nil {
			b.Fatal(err)
		}
	}
}
