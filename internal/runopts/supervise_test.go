package runopts

import (
	"reflect"
	"strings"
	"testing"

	"tsxhpc/internal/runner"
)

func TestSupervisionFlagParsing(t *testing.T) {
	o, err := parse(t, "-quarantine", "2", "-poison", "stamp/bayes, net/echo")
	if err != nil {
		t.Fatal(err)
	}
	if o.Quarantine != 2 || o.Poison != "stamp/bayes, net/echo" {
		t.Fatalf("quarantine/poison = %d/%q", o.Quarantine, o.Poison)
	}

	o, err = parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.Quarantine != DefaultQuarantine || o.Poison != "" {
		t.Fatalf("defaults = %+v", o)
	}

	// Resume is a rerun against the same -cache; the retry, journal and
	// job-chaos flags no longer exist.
	for _, gone := range []string{"-retries=3", "-journal=off", "-resume", "-jobchaos=1"} {
		if _, err := parse(t, gone); err == nil {
			t.Errorf("%s parsed; want an unknown-flag error", gone)
		}
	}
}

// TestArmPoison: each listed prefix fails its cells before they run, the
// failed cells are quarantined, other cells run normally, and the note lands
// on warn, not stdout. Without -poison no hook is installed.
func TestArmPoison(t *testing.T) {
	o := Options{Poison: "bad/, worse/"}
	var warn strings.Builder
	e := runner.New(2)
	o.ArmPoison(e, &warn)
	if !strings.Contains(warn.String(), `poison: cells with key prefix ["bad/" "worse/"]`) {
		t.Fatalf("warn = %q", warn.String())
	}
	fn := func() (int, error) { return 7, nil }
	for _, k := range []runner.Key{"bad/cell", "worse/cell"} {
		if _, err := runner.Do(e, k, fn); err == nil || !strings.Contains(err.Error(), "poisoned cell "+string(k)) {
			t.Fatalf("%s: err = %v", k, err)
		}
	}
	if v, err := runner.Do(e, "good/cell", fn); err != nil || v != 7 {
		t.Fatalf("healthy cell: %d, %v", v, err)
	}
	if q := e.Quarantined(); !reflect.DeepEqual(q, []runner.Key{"bad/cell", "worse/cell"}) {
		t.Fatalf("quarantined = %v", q)
	}
	if st := e.Stats(); st.Executed != 1 || st.Quarantined != 2 {
		t.Fatalf("stats = %+v, want 1 executed, 2 quarantined", st)
	}

	warn.Reset()
	clean := runner.New(1)
	(&Options{Poison: " , "}).ArmPoison(clean, &warn)
	if _, err := runner.Do(clean, "bad/cell", fn); err != nil || warn.Len() != 0 {
		t.Fatalf("blank -poison armed a hook: err=%v warn=%q", err, warn.String())
	}
}
