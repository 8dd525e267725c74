package runopts

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsxhpc/internal/sim"
	"tsxhpc/internal/tm"
)

// parse registers the shared flags on a fresh FlagSet, parses args, and runs
// Finish — the exact sequence every cmd binary performs.
func parse(t *testing.T, args ...string) (*Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{}) // silence usage spam
	var o Options
	Register(fs, &o)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.Finish(fs)
	return &o, nil
}

func TestFlagParsing(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the parse error; "" means success
		check   func(t *testing.T, o *Options)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, o *Options) {
				if o.ChaosSet {
					t.Error("ChaosSet true without -chaos")
				}
				if o.Cache != DefaultCacheDir {
					t.Errorf("Cache = %q, want %q", o.Cache, DefaultCacheDir)
				}
				if o.MaxCycles != 0 || o.StallCycles != 0 {
					t.Errorf("budgets = %d/%d, want 0/0", o.MaxCycles, o.StallCycles)
				}
			},
		},
		{
			name: "chaos seed zero is armed",
			args: []string{"-chaos", "0"},
			check: func(t *testing.T, o *Options) {
				if !o.ChaosSet || o.ChaosSeed != 0 {
					t.Errorf("ChaosSet=%v ChaosSeed=%d, want true/0", o.ChaosSet, o.ChaosSeed)
				}
			},
		},
		{
			name:    "bad chaos value",
			args:    []string{"-chaos", "banana"},
			wantErr: `invalid value "banana" for flag -chaos`,
		},
		{
			name:    "bad maxcycles value",
			args:    []string{"-maxcycles", "-1"},
			wantErr: `invalid value "-1" for flag -maxcycles`,
		},
		{
			name: "cache off",
			args: []string{"-cache", "off"},
			check: func(t *testing.T, o *Options) {
				if o.CacheDir() != "" {
					t.Errorf("CacheDir() = %q, want empty for -cache off", o.CacheDir())
				}
			},
		},
		{
			name: "negative parallel accepted and resolved later",
			args: []string{"-parallel", "-3"},
			check: func(t *testing.T, o *Options) {
				if o.Parallel != -3 {
					t.Errorf("Parallel = %d, want -3", o.Parallel)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parse(t, tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			tc.check(t, o)
		})
	}
}

func TestPlanAndStallResolution(t *testing.T) {
	cases := []struct {
		name      string
		o         Options
		wantPlan  bool
		wantStall uint64
	}{
		{"faults off", Options{}, false, 0},
		{"explicit stall without chaos", Options{StallCycles: 7}, false, 7},
		{"chaos arms default watchdog", Options{ChaosSet: true}, true, DefaultChaosStallCycles},
		{"explicit stall wins over chaos default", Options{ChaosSet: true, StallCycles: 9}, true, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.o.Plan() != nil; got != tc.wantPlan {
				t.Errorf("Plan() non-nil = %v, want %v", got, tc.wantPlan)
			}
			if got := tc.o.EffectiveStallCycles(); got != tc.wantStall {
				t.Errorf("EffectiveStallCycles() = %d, want %d", got, tc.wantStall)
			}
		})
	}
}

// TestSetupCacheUnopenable: a -cache path that cannot be a directory (it is a
// file) degrades to a warning, not a failure — the suite still works.
func TestSetupCacheUnopenable(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := Options{Parallel: 1, Cache: bad}
	var warn strings.Builder
	suite, store, cleanup := o.Setup(&warn)
	defer cleanup()
	if suite == nil {
		t.Fatal("Setup returned nil suite")
	}
	if store != nil {
		t.Fatalf("store = %v, want nil for unopenable cache", store)
	}
	if !strings.Contains(warn.String(), "cache disabled") {
		t.Fatalf("warning %q does not mention cache disabled", warn.String())
	}
}

// TestSetupCleanupRestoresDefaults: chaos Setup installs process-wide run
// defaults; cleanup must restore the zero value so in-process callers do not
// leak fault injection into each other. (Not parallel: process-wide state.)
func TestSetupCleanupRestoresDefaults(t *testing.T) {
	o := Options{Parallel: 1, Cache: CacheOff, ChaosSet: true, ChaosSeed: 5}
	var warn strings.Builder
	_, _, cleanup := o.Setup(&warn)
	if d := sim.GetRunDefaults(); d.Faults == nil || d.StallCycles != DefaultChaosStallCycles {
		cleanup()
		t.Fatalf("armed defaults = %+v, want chaos plan + default watchdog", d)
	}
	cleanup()
	if d := sim.GetRunDefaults(); d != (sim.RunDefaults{}) {
		t.Fatalf("defaults after cleanup = %+v, want zero", d)
	}
}

// TestObservabilitySidecars drives the full -metricsout/-trace pipeline the
// way a cmd binary does: parse flags, Setup (which must arm the probe run
// defaults and disable the persistent cache), simulate a cell, and write
// both sidecars; then validates their shape.
func TestObservabilitySidecars(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	tpath := filepath.Join(dir, "trace.json")
	o, err := parse(t, "-metricsout", mpath, "-trace", tpath, "-cache", dir+"/cache")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Metrics {
		t.Error("-metricsout did not imply -metrics")
	}
	if !o.ProbesArmed() {
		t.Error("ProbesArmed false with both sidecars requested")
	}
	if got := o.MetricsPath("tool"); got != mpath {
		t.Errorf("MetricsPath = %q, want %q", got, mpath)
	}
	var warn strings.Builder
	suite, store, cleanup := o.Setup(&warn)
	defer cleanup()
	if store != nil {
		t.Error("persistent cache stayed open with probes armed (cached cells would report no metrics)")
	}
	if !strings.Contains(warn.String(), "cache disabled") {
		t.Errorf("no cache-disabled note on warn; got %q", warn.String())
	}
	if d := sim.GetRunDefaults(); !d.Metrics || d.TraceEvents != DefaultTraceEvents {
		t.Fatalf("run defaults not armed: %+v", d)
	}
	if _, err := suite.StampCell("kmeans", tm.TSX, 2).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteObservability("tool", &warn); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var rep MetricsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != MetricsSchema || rep.Tool != "tool" {
		t.Errorf("report header = %q/%q", rep.Schema, rep.Tool)
	}
	if rep.GoVersion == "" {
		t.Error("go_version empty")
	}
	if rep.Scheduler != "runtime-coro" && rep.Scheduler != "channel" {
		t.Errorf("scheduler = %q", rep.Scheduler)
	}
	found := false
	for _, c := range rep.Counters {
		if strings.HasPrefix(c.Name, "htm/") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no htm/ counters in sidecar (got %d counters)", len(rep.Counters))
	}

	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	tdata, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tdata, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

// TestMetricsDefaultPath checks -metrics without -metricsout derives the
// per-tool sidecar name, and that metrics-off runs resolve no path at all.
func TestMetricsDefaultPath(t *testing.T) {
	o, err := parse(t, "-metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := o.MetricsPath("reproduce"); got != "METRICS_reproduce.json" {
		t.Errorf("MetricsPath = %q, want METRICS_reproduce.json", got)
	}
	off, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if off.ProbesArmed() {
		t.Error("ProbesArmed true with no observability flags")
	}
	if got := off.MetricsPath("reproduce"); got != "" {
		t.Errorf("MetricsPath = %q with metrics off, want empty", got)
	}
	// WriteObservability must be a no-op (no files, no error) when nothing
	// was requested, so tools call it unconditionally.
	if err := off.WriteObservability("reproduce", &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestModelLayoutFlags: the -htmmodel/-layout axis flags validate at parse
// time (a typo is a flag error naming the valid spellings, not a panic deep
// inside machine construction) and Setup propagates accepted values into the
// process-wide run defaults so every machine the suite builds sees them.
func TestModelLayoutFlags(t *testing.T) {
	if o, err := parse(t, "-htmmodel", "strict", "-layout", "colliding"); err != nil {
		t.Fatalf("parse: %v", err)
	} else if o.HTMModel != "strict" || o.Layout != "colliding" {
		t.Fatalf("parsed %q/%q, want strict/colliding", o.HTMModel, o.Layout)
	}
	if _, err := parse(t, "-htmmodel", "hle"); err == nil ||
		!strings.Contains(err.Error(), "valid: l1bloom, strict, victim, reqloses") {
		t.Fatalf("bad -htmmodel error = %v, want the valid model list", err)
	}
	if _, err := parse(t, "-layout", "striped"); err == nil ||
		!strings.Contains(err.Error(), "valid: packed, randomized, colliding") {
		t.Fatalf("bad -layout error = %v, want the valid layout list", err)
	}

	// Setup installs the axes process-wide; cleanup restores the zero value.
	// (Not parallel: process-wide state.)
	o := Options{Parallel: 1, Cache: CacheOff, HTMModel: "victim", Layout: "randomized"}
	var warn strings.Builder
	_, _, cleanup := o.Setup(&warn)
	if d := sim.GetRunDefaults(); d.HTMModel != "victim" || d.Layout != "randomized" {
		cleanup()
		t.Fatalf("armed defaults = %+v, want victim/randomized", d)
	}
	cfg := sim.DefaultConfig()
	if cfg.HTMModel != "victim" || cfg.Layout != "randomized" {
		cleanup()
		t.Fatalf("DefaultConfig() = %q/%q, want victim/randomized", cfg.HTMModel, cfg.Layout)
	}
	cleanup()
	if d := sim.GetRunDefaults(); d != (sim.RunDefaults{}) {
		t.Fatalf("defaults after cleanup = %+v, want zero", d)
	}
}
