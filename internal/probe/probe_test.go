package probe

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestCounterAndHist(t *testing.T) {
	s := NewSet()
	c := s.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if s.Counter("a") != c {
		t.Fatal("Counter not idempotent")
	}
	h := s.Hist("h")
	for _, v := range []uint64{0, 1, 2, 3, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count != 6 {
		t.Fatalf("hist count = %d, want 6", h.Count)
	}
	if want := uint64(0 + 1 + 2 + 3 + 100 + 1<<40); h.Sum != want {
		t.Fatalf("hist sum = %d, want %d", h.Sum, want)
	}
	if h.Buckets[0] != 1 { // the zero observation
		t.Fatalf("bucket0 = %d, want 1", h.Buckets[0])
	}
	if h.Buckets[histBuckets-1] != 1 { // 1<<40 clamps into the last bucket
		t.Fatalf("last bucket = %d, want 1", h.Buckets[histBuckets-1])
	}
	if s.Hist("h") != h {
		t.Fatal("Hist not idempotent")
	}
}

func TestSnapshotSortedAndKeepsZeros(t *testing.T) {
	s := NewSet()
	s.Counter("z")
	s.Counter("a").Inc()
	s.Hist("m")
	snap := s.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[1].Name != "z" {
		t.Fatalf("counters not sorted/complete: %+v", snap.Counters)
	}
	if snap.Counters[1].Value != 0 {
		t.Fatal("zero counter dropped")
	}
	if len(snap.Hists) != 1 || snap.Hists[0].Count != 0 {
		t.Fatalf("zero hist dropped: %+v", snap.Hists)
	}
	if snap.Counter("a") != 1 || snap.Counter("missing") != 0 {
		t.Fatal("Snapshot.Counter lookup wrong")
	}
}

// Merge must be order-independent: any permutation of the same parts yields
// a deeply equal snapshot. This is the property that keeps merged reports
// byte-identical at any host parallelism.
func TestMergeOrderIndependent(t *testing.T) {
	mk := func(n string, v uint64, hv uint64) Snapshot {
		s := NewSet()
		s.Counter(n).Add(v)
		s.Counter("shared").Add(v * 2)
		s.Hist("lat").Observe(hv)
		return s.Snapshot()
	}
	parts := []Snapshot{mk("a", 1, 3), mk("b", 2, 300), mk("c", 3, 1<<30)}
	want := Merge(parts...)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		p := append([]Snapshot(nil), parts...)
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		if got := Merge(p...); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge order-dependent:\n got %+v\nwant %+v", got, want)
		}
	}
	if want.Counter("shared") != 12 {
		t.Fatalf("shared = %d, want 12", want.Counter("shared"))
	}
	h, ok := want.Hist("lat")
	if !ok || h.Count != 3 {
		t.Fatalf("merged hist wrong: %+v ok=%v", h, ok)
	}
}

// Snapshots are plain exported data, so a generic encoder round-trips them.
// The memo store's own codec is round-trip tested on probed results in
// internal/memo (this package cannot import it).
func TestSnapshotGobRoundTrip(t *testing.T) {
	s := NewSet()
	s.Counter("x").Add(7)
	s.Hist("h").Observe(9)
	snap := s.Snapshot()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("gob round-trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
}

// The hot-path operations must not allocate: they run inside the
// simulator's per-event paths and an allocation there would both cost time
// and perturb GC timing.
func TestHotPathsZeroAlloc(t *testing.T) {
	s := NewSet()
	c := s.Counter("c")
	h := s.Hist("h")
	tr := newTrace("m", 64)
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter ops allocate: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(1234) }); n != 0 {
		t.Fatalf("Hist.Observe allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Emit(0, 10, 5, "txn", "tsx:commit") }); n != 0 {
		t.Fatalf("Trace.Emit allocates: %v allocs/op", n)
	}
}

func TestTraceBoundedKeepFirst(t *testing.T) {
	tr := newTrace("m", 2)
	tr.Emit(0, 1, 1, "txn", "a")
	tr.Emit(1, 2, 1, "txn", "b")
	tr.Emit(0, 3, 1, "txn", "c")
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	sp := tr.Spans()
	if len(sp) != 2 || sp[0].Name != "a" || sp[1].Name != "b" {
		t.Fatalf("keep-first violated: %+v", sp)
	}
}

// The exported trace must be valid Chrome trace-event JSON: a traceEvents
// array whose entries carry ph/pid/tid/ts (and name), with process_name
// metadata per machine — the schema chrome://tracing's legacy loader and
// Perfetto both accept.
func TestWriteChromeTraceSchema(t *testing.T) {
	ResetGlobal()
	defer ResetGlobal()
	tr := AttachTrace("stamp/intruder/tsx/8T", 16)
	tr.Emit(0, 100, 40, "txn", "tsx:commit")
	tr.Emit(1, 150, 10, "txn", "tsx:abort:conflict")
	tr2 := AttachTrace("stamp/kmeans/tsx/8T", 1)
	tr2.Emit(0, 5, 5, "fallback", "tsx:fallback")
	tr2.Emit(0, 20, 5, "fallback", "tsx:fallback") // dropped

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Unit == "" {
		t.Fatal("missing displayTimeUnit")
	}
	var meta, spans int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		switch ph {
		case "M":
			meta++
			args, ok := ev["args"].(map[string]any)
			if !ok || args["name"] == nil {
				t.Fatalf("metadata event missing args.name: %v", ev)
			}
		case "X":
			spans++
			for _, k := range []string{"name", "ts", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("span missing %q: %v", k, ev)
				}
			}
		default:
			t.Fatalf("unexpected ph %q", ph)
		}
	}
	if meta != 2 || spans != 3 {
		t.Fatalf("meta=%d spans=%d, want 2/3", meta, spans)
	}
}

// Machines register their traces from host worker goroutines, so the
// registration order varies from run to run; the trace file must not.
// Four of the traces share a label (cells of one figure that differ only
// in seed, say), and two of those differ only in how many spans they
// dropped.
func TestWriteChromeTraceIgnoresRegistrationOrder(t *testing.T) {
	defer ResetGlobal()
	type trace struct {
		label string
		spans []Span
	}
	traces := []trace{
		{"stamp/kmeans/tsx/8T", []Span{{0, 5, 5, "txn", "tsx:commit"}}},
		{"stamp/intruder/tsx/8T", []Span{{1, 100, 40, "txn", "tsx:commit"}}},
		{"stamp/intruder/tsx/8T", []Span{{0, 100, 40, "txn", "tsx:commit"}, {1, 120, 4, "txn", "tsx:abort:conflict"}}},
		{"stamp/intruder/tsx/8T", []Span{{0, 100, 40, "txn", "tsx:commit"}, {1, 120, 4, "txn", "tsx:abort:conflict"}, {1, 130, 4, "txn", "tsx:commit"}}},
		{"stamp/intruder/tsx/8T", []Span{{0, 90, 40, "fallback", "tsx:fallback"}}},
	}
	write := func(order []int) string {
		ResetGlobal()
		for _, i := range order {
			tr := AttachTrace(traces[i].label, 2)
			for _, s := range traces[i].spans {
				tr.Emit(s.TID, s.Ts, s.Dur, s.Cat, s.Name)
			}
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := write([]int{0, 1, 2, 3, 4}), write([]int{3, 4, 2, 1, 0})
	if first != second {
		t.Fatalf("registration order changed the trace file:\n%s\n%s", first, second)
	}
	if !strings.Contains(first, `"pid":5`) || strings.Contains(first, `"pid":6`) {
		t.Fatalf("pids do not number the five traces 1-5:\n%s", first)
	}
}

func TestGlobalSnapshotMergesSources(t *testing.T) {
	ResetGlobal()
	defer ResetGlobal()
	a := NewSet()
	a.Counter("htm/commits").Add(3)
	b := NewSet()
	b.Counter("htm/commits").Add(4)
	AttachSource(a.Snapshot)
	AttachSource(b.Snapshot)
	if got := GlobalSnapshot().Counter("htm/commits"); got != 7 {
		t.Fatalf("global = %d, want 7", got)
	}
	ResetGlobal()
	if got := GlobalSnapshot(); len(got.Counters) != 0 {
		t.Fatalf("reset left sources: %+v", got)
	}
}
