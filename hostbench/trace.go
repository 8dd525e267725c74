package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"tsxhpc/internal/runner"
)

// span is one interval the traced run recorded around a call into a layer.
// parent is the index+1 of the enclosing span (0 for a root) and op the
// index of the timed op it belongs to (-1 for set-up).
type span struct {
	name       string
	detail     string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         int32
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// *tracer records nothing, so untraced code paths call the same methods.
//
// Spans are opened from the benchmark's goroutine and from the runner's job
// goroutines (the store wrapper), so the slice is guarded; with one runner
// worker at most one of them is active at a time.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	op    int32
	// scope is the parent the store wrapper gives its spans: the span that
	// was open on the benchmark's side when the runner called the store.
	scope int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(name, detail string, parent int32) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, detail: detail, start: int64(time.Since(t.epoch)), parent: parent, op: t.op})
	return int32(len(t.spans))
}

// beginScoped opens a span under the current scope.
func (t *tracer) beginScoped(name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	parent := t.scope
	t.mu.Unlock()
	return t.begin(name, "", parent)
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = int64(time.Since(t.epoch))
}

func (t *tracer) setScope(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scope = id
	t.mu.Unlock()
}

func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
}

// layerTimes is what the traced run learned about one span name.
type layerTimes struct {
	dur  []float64 // ns
	self []float64 // ns: duration minus the union of the children's intervals
}

// byName groups the duration and self time of every closed span keep
// accepts by span name.
func (t *tracer) byName(keep func(span) bool) map[string]*layerTimes {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent > 0 {
			children[s.parent-1] = append(children[s.parent-1], i)
		}
	}
	out := make(map[string]*layerTimes)
	for i, s := range t.spans {
		if s.end < s.start || !keep(s) {
			continue // never closed (the op failed through it) or not wanted
		}
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		var ivs [][2]int64
		for _, c := range children[i] {
			if cs := t.spans[c]; cs.end >= cs.start {
				ivs = append(ivs, [2]int64{cs.start, cs.end})
			}
		}
		dur := float64(s.end - s.start)
		lt.dur = append(lt.dur, dur)
		lt.self = append(lt.self, dur-float64(covered(s.start, s.end, ivs)))
	}
	return out
}

// covered is how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChrome exports the spans as Chrome trace-event JSON ("X" complete
// events on one lane, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	w.WriteString("{\"traceEvents\":[\n")
	enc := json.NewEncoder(w)
	sep := ""
	for i, s := range t.spans {
		if s.end < s.start {
			continue
		}
		w.WriteString(sep)
		sep = ","
		name := s.name
		if s.detail != "" {
			name += " " + s.detail
		}
		if err := enc.Encode(event{Name: name, Cat: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": i + 1, "parent": s.parent, "op": s.op}}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore is the traced run's runner.Store: it wraps the memo store that
// runopts.Options.Setup opened, records a span around every Load and Save,
// and counts the simulated events of the results it serves.
type timedStore struct {
	inner  runner.Store
	tr     *tracer
	served uint64 // events of the cells Load returned as hits
}

func (s *timedStore) Load(key runner.Key, out any) runner.LoadStatus {
	id := s.tr.beginScoped("memo.Load")
	st := s.inner.Load(key, out)
	s.tr.end(id)
	// out is the runner's *T; a pointer carries T's value methods, so a
	// result type that reports its events does so through out as well.
	if ev, ok := out.(runner.Eventer); ok && st == runner.StoreHit {
		s.served += ev.SimEvents()
	}
	return st
}

func (s *timedStore) Save(key runner.Key, v any) error {
	id := s.tr.beginScoped("memo.Save")
	err := s.inner.Save(key, v)
	s.tr.end(id)
	return err
}
