// Package probe is the deterministic observability layer under every engine
// in this repository: a counter/histogram registry (per-machine Sets merged
// into process-wide snapshots), plus a bounded structured-event trace with
// Chrome trace-event JSON export (trace.go).
//
// Two rules make the layer safe to wire into the simulator's hot paths:
//
//   - Zero overhead when disabled. Engines resolve *Counter/*Hist handles at
//     construction time (a map lookup each, off the hot path) and hold nil
//     when the machine carries no probe set; the hot-path operations are a
//     nil check plus a field increment, allocate nothing, draw no random
//     numbers, and charge no simulated cycles — so arming or disarming the
//     probes cannot change a run's schedule or output.
//   - Determinism at any host parallelism. A Set belongs to one machine and
//     is only mutated by that machine's serialized simulated threads, so its
//     contents are a pure function of the cell. Snapshots order entries by
//     name, and Merge is commutative addition over names, so a merged report
//     is byte-identical no matter how many host workers raced to produce the
//     per-machine parts.
//
// See DESIGN.md §14 for the architecture and the determinism rules.
package probe

import (
	"math/bits"
	"sort"
	"sync"
)

// Counter is a monotonically increasing event count. Increments are plain
// adds: a counter is owned by one simulated machine, whose threads are
// serialized by construction.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations whose bit length is i (bucket 0 holds zeros), with the
// last bucket absorbing everything ≥ 2^(histBuckets-2).
const histBuckets = 24

// Hist is a power-of-two-bucket histogram with exact count and sum (means
// derived from Sum/Count are exact integer ratios, so formatted output is
// deterministic).
type Hist struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += v
}

// Mean returns the exact arithmetic mean of the observations (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Set is one machine's named counters and histograms. Handle resolution
// (Counter/Hist) is idempotent and cheap but not hot-path; engines resolve
// once at construction and increment through the returned pointers.
type Set struct {
	counters map[string]*Counter
	hists    map[string]*Hist
}

// NewSet creates an empty probe set.
func NewSet() *Set {
	return &Set{counters: make(map[string]*Counter), hists: make(map[string]*Hist)}
}

// Counter resolves (creating on first use) the counter named name.
func (s *Set) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{}
	s.counters[name] = c
	return c
}

// Reset zeroes every counter and histogram while keeping the resolved
// handles valid — the probe equivalent of the engines' Stats.Reset, used to
// discard workload-setup noise before the measured region.
func (s *Set) Reset() {
	for _, c := range s.counters {
		c.v = 0
	}
	for _, h := range s.hists {
		*h = Hist{}
	}
}

// Hist resolves (creating on first use) the histogram named name.
func (s *Set) Hist(name string) *Hist {
	if h, ok := s.hists[name]; ok {
		return h
	}
	h := &Hist{}
	s.hists[name] = h
	return h
}

// CounterVal is one named counter value in a snapshot.
type CounterVal struct {
	Name  string
	Value uint64
}

// HistVal is one named histogram in a snapshot. Buckets is kept as a slice
// so snapshots encode compactly inside memoized cell results.
type HistVal struct {
	Name    string
	Buckets []uint64
	Count   uint64
	Sum     uint64
}

// Mean returns the exact arithmetic mean of the recorded observations.
func (h HistVal) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is an immutable, name-sorted capture of a Set (possibly extended
// with derived entries, e.g. the simulator's virtual-time phase counters).
// Snapshots are plain exported data (no pointers, interfaces or unexported
// fields), so the memo store's codec round-trips them exactly inside
// memoized cell results.
type Snapshot struct {
	Counters []CounterVal
	Hists    []HistVal
}

// Snapshot captures the set's current contents, sorted by name. Resolved
// but never-incremented entries are included: which names exist depends only
// on which engines were constructed, so the zero rows keep reports
// structurally identical across cells of the same shape.
func (s *Set) Snapshot() Snapshot {
	var snap Snapshot
	for name, c := range s.counters {
		snap.Counters = append(snap.Counters, CounterVal{name, c.v})
	}
	for name, h := range s.hists {
		buckets := make([]uint64, histBuckets)
		copy(buckets, h.Buckets[:])
		snap.Hists = append(snap.Hists, HistVal{name, buckets, h.Count, h.Sum})
	}
	snap.sort()
	return snap
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
}

// AddCounter appends (or accumulates into) the named counter, keeping the
// snapshot consumable by Counter after a final sort; builders that append
// should call sort (via Merge) or append in name order.
func (s *Snapshot) AddCounter(name string, v uint64) {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			s.Counters[i].Value += v
			return
		}
	}
	s.Counters = append(s.Counters, CounterVal{name, v})
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Hist returns the named histogram and whether it exists.
func (s Snapshot) Hist(name string) (HistVal, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistVal{}, false
}

// Merge sums snapshots by name into one name-sorted snapshot. Addition over
// names is commutative, so the result is independent of the order in which
// host workers produced (or this call visits) the parts — the property that
// keeps -metrics sidecars byte-identical at any -parallel.
func Merge(snaps ...Snapshot) Snapshot {
	counters := make(map[string]uint64)
	hists := make(map[string]*HistVal)
	for _, sn := range snaps {
		for _, c := range sn.Counters {
			counters[c.Name] += c.Value
		}
		for _, h := range sn.Hists {
			dst, ok := hists[h.Name]
			if !ok {
				dst = &HistVal{Name: h.Name, Buckets: make([]uint64, histBuckets)}
				hists[h.Name] = dst
			}
			for i, b := range h.Buckets {
				if i < len(dst.Buckets) {
					dst.Buckets[i] += b
				}
			}
			dst.Count += h.Count
			dst.Sum += h.Sum
		}
	}
	var out Snapshot
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterVal{name, v})
	}
	for _, h := range hists {
		out.Hists = append(out.Hists, *h)
	}
	out.sort()
	return out
}

// The process-wide collector. Machines created with metrics or tracing armed
// register a snapshot source (and trace buffer) here at construction; the
// runopts sidecar writers drain it after all simulation jobs have completed.
// Registration is mutex-guarded (machines are built on host worker
// goroutines); snapshot functions are only invoked from the sidecar writer,
// after the runner's futures have synchronized completion.
var global struct {
	mu      sync.Mutex
	sources []func() Snapshot
	traces  []*Trace
}

// AttachSource registers a snapshot source with the process-wide collector.
func AttachSource(fn func() Snapshot) {
	global.mu.Lock()
	defer global.mu.Unlock()
	global.sources = append(global.sources, fn)
}

// AttachTrace creates a bounded trace buffer labeled label with capacity for
// max spans and registers it with the process-wide collector.
func AttachTrace(label string, max int) *Trace {
	global.mu.Lock()
	defer global.mu.Unlock()
	t := newTrace(label, max)
	global.traces = append(global.traces, t)
	return t
}

// GlobalSnapshot merges every registered source into one snapshot. Call it
// only after the simulation jobs feeding the sources have completed.
func GlobalSnapshot() Snapshot {
	global.mu.Lock()
	sources := append([]func() Snapshot(nil), global.sources...)
	global.mu.Unlock()
	snaps := make([]Snapshot, 0, len(sources))
	for _, fn := range sources {
		snaps = append(snaps, fn())
	}
	return Merge(snaps...)
}

// ResetGlobal clears the process-wide collector (between in-process runs in
// tests; a fresh tool process starts empty anyway).
func ResetGlobal() {
	global.mu.Lock()
	defer global.mu.Unlock()
	global.sources = nil
	global.traces = nil
}
