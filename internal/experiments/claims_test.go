package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"tsxhpc/internal/runner"
)

// TestJudgeOutcomes: a claim holds when every item does, deviates when a
// missing item sits inside its documented band, and fails when a missing
// item has no band or leaves it; each outcome prints as its own word.
func TestJudgeOutcomes(t *testing.T) {
	id := "fig2/tsx-1T-near-sgl"
	band := deviations[id]["bayes"]
	cases := []struct {
		items []item
		want  Outcome
		word  string
	}{
		{[]item{{"genome", 0.97, true}, {"bayes", 1, true}}, Holds, "holds"},
		{[]item{{"genome", 0.97, true}, {"bayes", band.lo, false}}, Deviates, "deviates"},
		{[]item{{"bayes", band.hi + 0.01, false}}, Fails, "FAILS"},
		{[]item{{"genome", 1.2, false}, {"bayes", band.lo, false}}, Fails, "FAILS"},
	}
	for i, c := range cases {
		got := judge(id, "", c.items)
		if got.Outcome != c.want {
			t.Errorf("case %d: outcome %v, want %v (%s)", i, got.Outcome, c.want, got.Detail)
		}
		if w := got.Outcome.String(); w != c.word {
			t.Errorf("case %d: outcome prints %q, want %q", i, w, c.word)
		}
	}
}

// TestDeviationsCiteExperiments: every documented deviation links to a
// heading that exists in EXPERIMENTS.md.
func TestDeviationsCiteExperiments(t *testing.T) {
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	drop := regexp.MustCompile(`[^a-z0-9 _-]`)
	for _, line := range strings.Split(string(b), "\n") {
		if h, ok := strings.CutPrefix(line, "#"); ok {
			h = strings.TrimLeft(h, "# ")
			anchors["#"+strings.ReplaceAll(drop.ReplaceAllString(strings.ToLower(h), ""), " ", "-")] = true
		}
	}
	for id, items := range deviations {
		for name, d := range items {
			if !anchors[d.doc] {
				t.Errorf("%s/%s cites %q, which is no EXPERIMENTS.md heading", id, name, d.doc)
			}
		}
	}
}

// TestClaimsFailFirstKey: when cells fail, Claims reports the first failing
// key of the first grid it reads, on every call, whichever cell's failure
// the host happened to see first.
func TestClaimsFailFirstKey(t *testing.T) {
	s := NewSuite(4)
	s.E.SetInject(func(k runner.Key) error { return fmt.Errorf("injected failure of %s", k) })
	const want = "injected failure of stamp/bayes/sgl/1T"
	for i := 0; i < 20; i++ {
		if _, err := s.Claims(); err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", i, err, want)
		}
	}
}
