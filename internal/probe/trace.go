package probe

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Span is one completed interval on a simulated thread's track: Ts/Dur in
// virtual cycles, Cat the span family ("txn", "fallback"), Name the specific
// outcome ("tsx:commit", "tsx:abort:conflict", "tl2:abort", ...). Cat and
// Name must be precomputed constants at the emit site — building them there
// would allocate on the hot path.
type Span struct {
	TID  int
	Ts   uint64
	Dur  uint64
	Cat  string
	Name string
}

// Trace is a bounded keep-first span buffer for one machine. The buffer is
// preallocated so Emit never allocates; once full, later spans are counted
// in Dropped rather than recorded (keep-first makes the retained prefix a
// pure function of the schedule, hence deterministic).
type Trace struct {
	label   string
	spans   []Span
	dropped uint64
}

func newTrace(label string, max int) *Trace {
	if max < 1 {
		max = 1
	}
	return &Trace{label: label, spans: make([]Span, 0, max)}
}

// Emit records one span, or counts it as dropped when the buffer is full.
func (t *Trace) Emit(tid int, ts, dur uint64, cat, name string) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{tid, ts, dur, cat, name})
}

// Dropped reports how many spans arrived after the buffer filled.
func (t *Trace) Dropped() uint64 { return t.dropped }

// Spans returns the recorded spans (shared backing array; treat as
// read-only).
func (t *Trace) Spans() []Span { return t.spans }

// traceEvent is one Chrome trace-event object. Virtual cycles are written
// through the viewer's microsecond fields, so 1 cycle renders as 1 µs.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders every trace buffer registered with the
// process-wide collector as Chrome trace-event JSON (chrome://tracing /
// Perfetto's legacy loader): one process per machine, one track per
// simulated thread, "X" complete events for spans. Call it only after the
// simulation jobs feeding the buffers have completed.
//
// The file depends only on the set of traces, not on the order machines
// registered them (which follows host goroutine scheduling): traces are
// ordered by label, then by their spans and dropped count, and each
// machine's pid is its position in that order.
func WriteChromeTrace(w io.Writer) error {
	global.mu.Lock()
	traces := append([]*Trace(nil), global.traces...)
	global.mu.Unlock()
	slices.SortFunc(traces, compareTraces)
	var f traceFile
	f.DisplayTimeUnit = "ms"
	f.TraceEvents = []traceEvent{}
	for i, t := range traces {
		pid := i + 1
		name := t.label
		if t.dropped > 0 {
			name = fmt.Sprintf("%s (%d spans dropped)", name, t.dropped)
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
		for _, s := range t.spans {
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: s.Ts, Dur: s.Dur, PID: pid, TID: s.TID,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// compareTraces orders traces by label, then spans, then dropped count.
// Traces it finds equal render identically, so their order is immaterial.
func compareTraces(a, b *Trace) int {
	return cmp.Or(
		strings.Compare(a.label, b.label),
		slices.CompareFunc(a.spans, b.spans, compareSpans),
		cmp.Compare(a.dropped, b.dropped),
	)
}

func compareSpans(a, b Span) int {
	return cmp.Or(
		cmp.Compare(a.TID, b.TID),
		cmp.Compare(a.Ts, b.Ts),
		cmp.Compare(a.Dur, b.Dur),
		strings.Compare(a.Cat, b.Cat),
		strings.Compare(a.Name, b.Name),
	)
}
