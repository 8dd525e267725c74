// Command checkmetrics validates the observability sidecars the -metrics
// and -trace flags produce: the metrics JSON against the tsxhpc-metrics/1
// schema (-metrics), and the Chrome trace-event JSON against the subset of
// the trace-event format the exporter emits (-trace). CI's metrics smoke job
// runs it after a full reproduce; exit status is non-zero on the first
// violation, with the reason on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricsFile mirrors runopts.MetricsReport (duplicated deliberately: the
// checker must catch schema drift in the producer, so it decodes the raw
// JSON shape rather than importing the producer's struct).
type metricsFile struct {
	Schema    string `json:"schema"`
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	Scheduler string `json:"scheduler"`
	Counters  []struct {
		Name  string `json:"name"`
		Value uint64 `json:"value"`
	} `json:"counters"`
	Hists []struct {
		Name    string   `json:"name"`
		Count   uint64   `json:"count"`
		Sum     uint64   `json:"sum"`
		Buckets []uint64 `json:"buckets"`
	} `json:"hists"`
}

// traceFile is the Chrome trace-event JSON object form.
type traceFile struct {
	TraceEvents []struct {
		Ph   string          `json:"ph"`
		PID  int             `json:"pid"`
		TID  int             `json:"tid"`
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkmetrics: "+format+"\n", args...)
	os.Exit(1)
}

func checkMetrics(path, requires string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var m metricsFile
	if err := json.Unmarshal(data, &m); err != nil {
		fail("%s: %v", path, err)
	}
	if m.Schema != "tsxhpc-metrics/1" {
		fail("%s: schema = %q, want tsxhpc-metrics/1", path, m.Schema)
	}
	if m.Tool == "" || m.GoVersion == "" {
		fail("%s: tool and go_version must be non-empty (got %q, %q)", path, m.Tool, m.GoVersion)
	}
	if m.Scheduler != "runtime-coro" && m.Scheduler != "iter-pull" {
		fail("%s: scheduler = %q, want runtime-coro or iter-pull", path, m.Scheduler)
	}
	if len(m.Counters) == 0 {
		fail("%s: no counters (probes armed but nothing simulated?)", path)
	}
	if !sort.SliceIsSorted(m.Counters, func(i, j int) bool { return m.Counters[i].Name < m.Counters[j].Name }) {
		fail("%s: counters are not name-sorted", path)
	}
	for _, prefix := range strings.Split(requires, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		found := false
		for _, c := range m.Counters {
			if strings.HasPrefix(c.Name, prefix) {
				found = true
				break
			}
		}
		if !found {
			fail("%s: no counter with required prefix %q", path, prefix)
		}
	}
	for _, h := range m.Hists {
		var n uint64
		for _, b := range h.Buckets {
			n += b
		}
		if n != h.Count {
			fail("%s: hist %q bucket total %d != count %d", path, h.Name, n, h.Count)
		}
	}
	fmt.Printf("checkmetrics: %s ok (%d counters, %d hists, scheduler %s, %s)\n",
		path, len(m.Counters), len(m.Hists), m.Scheduler, m.GoVersion)
}

func checkTrace(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var tr traceFile
	if err := json.Unmarshal(data, &tr); err != nil {
		fail("%s: %v", path, err)
	}
	if tr.DisplayTimeUnit != "ms" {
		fail("%s: displayTimeUnit = %q, want ms", path, tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) == 0 {
		fail("%s: no trace events", path)
	}
	meta, spans := 0, 0
	for i, ev := range tr.TraceEvents {
		if ev.PID <= 0 {
			fail("%s: event %d has pid %d, want >= 1", path, i, ev.PID)
		}
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" || len(ev.Args) == 0 {
				fail("%s: metadata event %d malformed: name=%q", path, i, ev.Name)
			}
			meta++
		case "X":
			if ev.Name == "" || ev.Cat == "" || ev.Dur < 0 {
				fail("%s: span event %d malformed: %+v", path, i, ev)
			}
			spans++
		default:
			fail("%s: event %d has unsupported phase %q (exporter emits only M and X)", path, i, ev.Ph)
		}
	}
	if meta == 0 {
		fail("%s: no process_name metadata events", path)
	}
	fmt.Printf("checkmetrics: %s ok (%d metadata, %d span events)\n", path, meta, spans)
}

func main() {
	metrics := flag.String("metrics", "", "metrics sidecar JSON to validate")
	requires := flag.String("require", "htm/,vt/,l1/,tl2/", "comma-separated counter-name prefixes that must be present in -metrics")
	trace := flag.String("trace", "", "Chrome trace-event JSON to validate")
	flag.Parse()
	if *metrics == "" && *trace == "" {
		fail("nothing to check: pass -metrics and/or -trace")
	}
	if *metrics != "" {
		checkMetrics(*metrics, *requires)
	}
	if *trace != "" {
		checkTrace(*trace)
	}
}
