package runner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeStore is an in-memory Store with scriptable load outcomes, for
// testing the engine's store protocol in isolation (the real on-disk
// implementation is tested in internal/memo, which cannot be imported here
// without a cycle).
type fakeStore struct {
	mu      sync.Mutex
	entries map[Key]int
	// invalid marks keys whose entries fail verification.
	invalid map[Key]bool
	// panicKey's Load panics, as a store with a corrupt index might.
	panicKey Key
	saves    int
}

func newFakeStore() *fakeStore {
	return &fakeStore{entries: make(map[Key]int), invalid: make(map[Key]bool)}
}

func (s *fakeStore) Load(key Key, out any) LoadStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if key == s.panicKey {
		panic("corrupt index")
	}
	if s.invalid[key] {
		return StoreInvalid
	}
	v, ok := s.entries[key]
	if !ok {
		return StoreMiss
	}
	*(out.(*int)) = v
	return StoreHit
}

func (s *fakeStore) Save(key Key, v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = v.(int)
	delete(s.invalid, key)
	s.saves++
	return nil
}

// TestStoreHitSkipsExecution: a persistent-store hit serves the result
// without running the job function and is counted as a hit, not an
// execution.
func TestStoreHitSkipsExecution(t *testing.T) {
	st := newFakeStore()
	st.entries["cell"] = 99
	e := New(1)
	e.SetStore(st)
	v, err := Do(e, "cell", func() (int, error) {
		t.Error("job function ran despite a store hit")
		return 0, nil
	})
	if err != nil || v != 99 {
		t.Fatalf("Do = %v, %v; want 99", v, err)
	}
	s := e.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 0 || s.Executed != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 0 misses, 0 executed", s)
	}
}

// TestStoreMissExecutesAndSaves: a miss runs the job and writes the entry
// back, so a fresh engine sharing the store hits.
func TestStoreMissExecutesAndSaves(t *testing.T) {
	st := newFakeStore()
	e := New(1)
	e.SetStore(st)
	if v, err := Do(e, "cell", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	s := e.Stats()
	if s.CacheMisses != 1 || s.Executed != 1 || st.saves != 1 {
		t.Fatalf("stats = %+v, saves = %d; want 1 miss, 1 executed, 1 save", s, st.saves)
	}
	e2 := New(1)
	e2.SetStore(st)
	if v, err := Do(e2, "cell", func() (int, error) { t.Error("re-ran"); return 0, nil }); err != nil || v != 7 {
		t.Fatalf("second engine Do = %v, %v", v, err)
	}
	if s := e2.Stats(); s.CacheHits != 1 || s.Executed != 0 {
		t.Fatalf("second engine stats = %+v", s)
	}
}

// TestStoreInvalidRecomputesAndRewrites: a corrupt entry is counted as
// invalid, the job re-executes, and the rewritten entry serves future hits.
func TestStoreInvalidRecomputesAndRewrites(t *testing.T) {
	st := newFakeStore()
	st.entries["cell"] = 1
	st.invalid["cell"] = true
	e := New(1)
	e.SetStore(st)
	var runs atomic.Int32
	if v, err := Do(e, "cell", func() (int, error) { runs.Add(1); return 5, nil }); err != nil || v != 5 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
	if s := e.Stats(); s.CacheInvalid != 1 || s.Executed != 1 {
		t.Fatalf("stats = %+v, want 1 invalid, 1 executed", s)
	}
	e2 := New(1)
	e2.SetStore(st)
	if v, err := Do(e2, "cell", func() (int, error) { t.Error("re-ran after rewrite"); return 0, nil }); err != nil || v != 5 {
		t.Fatalf("post-rewrite Do = %v, %v", v, err)
	}
}

// TestStoreFailedJobsNotSaved: job errors must never be persisted — the
// next process retries.
func TestStoreFailedJobsNotSaved(t *testing.T) {
	st := newFakeStore()
	e := New(1)
	e.SetStore(st)
	boom := errors.New("boom")
	if _, err := Do(e, "bad", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st.saves != 0 {
		t.Fatalf("failed job was saved (%d saves)", st.saves)
	}
}

// TestNoStoreNoCounters: without a persistent store the cache counters stay
// zero — probes against the nop store are not misses.
func TestNoStoreNoCounters(t *testing.T) {
	e := New(1)
	if _, err := Do(e, "cell", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.CacheHits != 0 || s.CacheMisses != 0 || s.CacheInvalid != 0 {
		t.Fatalf("nop store produced cache counts: %+v", s)
	}
	if s.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", s.Executed)
	}
}

// TestStoreHitNeedsNoWorker: a hit and an injected failure settle on the
// submitting goroutine. With the engine's only worker slot held by a
// blocked job, both futures still complete, and the hit runs nothing.
func TestStoreHitNeedsNoWorker(t *testing.T) {
	st := newFakeStore()
	st.entries["cell/cached"] = 42
	st.entries["cell/poisoned"] = 43
	e := New(1)
	e.SetStore(st)
	poisoned := errors.New("poisoned")
	e.SetInject(func(k Key) error {
		if k == "cell/poisoned" {
			return poisoned
		}
		return nil
	})
	started, release := make(chan struct{}), make(chan struct{})
	blocker := Submit(e, "cell/blocker", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	before := e.Stats()
	fn := func() (int, error) {
		t.Error("job function ran")
		return 0, nil
	}
	if v, err := Submit(e, "cell/cached", fn).Wait(); err != nil || v != 42 {
		t.Fatalf("hit = %v, %v; want 42", v, err)
	}
	if _, err := Submit(e, "cell/poisoned", fn).Wait(); !errors.Is(err, poisoned) {
		t.Fatalf("poisoned cell = %v, want the injected error", err)
	}
	after := e.Stats()
	if after.CacheHits-before.CacheHits != 1 || after.Executed != before.Executed || after.Quarantined != 1 {
		t.Fatalf("stats %+v -> %+v; want 1 hit, 0 executed, 1 quarantined while the slot was held", before, after)
	}
	close(release)
	if v, err := blocker.Wait(); err != nil || v != 1 {
		t.Fatalf("blocker = %v, %v", v, err)
	}
}

// scribbleStore writes a non-zero value into out and then reports status,
// as a store whose decode fails partway may.
type scribbleStore struct{ status LoadStatus }

func (s scribbleStore) Load(_ Key, out any) LoadStatus {
	*(out.(*int)) = -1
	return s.status
}

func (scribbleStore) Save(Key, any) error { return nil }

// TestStoreOutDefinedOnlyOnHit: out is defined only on StoreHit, so what a
// missing or invalid Load wrote into it is never served: the job runs fn and
// Wait returns fn's value.
func TestStoreOutDefinedOnlyOnHit(t *testing.T) {
	for _, status := range []LoadStatus{StoreInvalid, StoreMiss} {
		e := New(1)
		e.SetStore(scribbleStore{status})
		var runs atomic.Int32
		v, err := Do(e, "cell", func() (int, error) { runs.Add(1); return 7, nil })
		if err != nil || v != 7 || runs.Load() != 1 {
			t.Errorf("status %d: Do = %v, %v after %d runs; want fn's 7 after 1 run", status, v, err, runs.Load())
		}
	}
}

// TestSubmitHitAllocs: a store hit allocates its job and the *T the store
// decodes into, which the job holds as its result; Wait copies the T out.
// The runs share one engine, so the count includes the jobs map's growth,
// amortized below one allocation per hit.
func TestSubmitHitAllocs(t *testing.T) {
	const runs = 1000
	st := newFakeStore()
	keys := make([]Key, runs+1) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("cell/%d", i))
		st.entries[keys[i]] = 1000 + i // past the runtime's preallocated small ints
	}
	e := New(1)
	e.SetStore(st)
	fn := func() (int, error) { return 0, errors.New("job function ran") }
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if v, err := Submit(e, keys[i], fn).Wait(); err != nil || v != 1000+i {
			t.Fatalf("hit %d = %v, %v", i, v, err)
		}
		i++
	})
	if allocs > 2 {
		t.Errorf("Submit+Wait of a hit = %.0f allocs, want <= 2", allocs)
	}
}

// BenchmarkSubmitHit is the warm-serve path in isolation: Submit and Wait
// of a fresh key that the store holds.
func BenchmarkSubmitHit(b *testing.B) {
	st := newFakeStore()
	keys := make([]Key, b.N)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("cell/%d", i))
		st.entries[keys[i]] = i
	}
	e := New(1)
	e.SetStore(st)
	fn := func() (int, error) { return 0, errors.New("job function ran") }
	b.ReportAllocs()
	b.ResetTimer()
	for _, k := range keys {
		if _, err := Submit(e, k, fn).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
