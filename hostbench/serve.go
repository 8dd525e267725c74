package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"

	"tsxhpc/internal/experiments"
)

// section is one reproduce section the warm-serve workload renders.
type section struct {
	id  string
	run func(*experiments.Suite) (string, error)
}

// serveSections are the catalog's cheap sections, as cmd/reproduce renders
// them: E1, E4, E7, E8, E9, the four ablations, A5 (abort anatomy, whose
// cells carry probe snapshots) and A7. Cold, they simulate ~190 cells in a
// few seconds; warm, they are served from the store in tens of milliseconds.
var serveSections = []section{
	{"E1", func(s *experiments.Suite) (string, error) { f, err := s.Figure1(); return render(f, err) }},
	{"E4", func(s *experiments.Suite) (string, error) { t, err := s.Figure3(); return render(t, err) }},
	{"E7", func(s *experiments.Suite) (string, error) { f, err := s.Figure5b(); return render(f, err) }},
	{"E8", func(s *experiments.Suite) (string, error) {
		t, gain, err := s.Figure6()
		if err != nil {
			return "", err
		}
		return t.Render() + fmt.Sprintf("tsx.busywait average gain over mutex: %.2fx\n", gain), nil
	}},
	{"E9", func(s *experiments.Suite) (string, error) {
		f, err := s.RetrySweep([]int{1, 2, 3, 4, 5, 6, 8, 10})
		return render(f, err)
	}},
	{"A1", func(s *experiments.Suite) (string, error) { t, err := s.HTCapacityAblation(); return render(t, err) }},
	{"A2", func(s *experiments.Suite) (string, error) {
		f, err := s.ConflictWiringAblation()
		return render(f, err)
	}},
	{"A3", func(s *experiments.Suite) (string, error) { t, err := s.LocksetAblation(); return render(t, err) }},
	{"A4", func(s *experiments.Suite) (string, error) {
		t, err := s.AdaptiveCoarseningAblation()
		return render(t, err)
	}},
	{"A5", func(s *experiments.Suite) (string, error) { return s.AbortAnatomy() }},
	{"A7", func(s *experiments.Suite) (string, error) { t, err := s.ModelAnatomy(); return render(t, err) }},
}

// serveRepeat is the section the check renders cold a second time: A7, a
// dozen cheap cells.
const serveRepeat = "A7"

type renderer interface{ Render() string }

func render(r renderer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// serve renders every section in the given order through a fresh suite that
// runopts.Options.Setup builds over the cold-filled store, as a rerun of
// cmd/reproduce would, and checks that it simulated nothing and rendered
// exactly what the cold fill rendered.
func (b *bench) serve(parent int32, order []int) (outcome, error) {
	id := b.tr.begin("runopts.Setup", "", parent)
	suite, st, cleanup := b.opts.Setup(os.Stderr)
	b.tr.end(id)
	defer cleanup()
	if st == nil {
		return outcome{}, fmt.Errorf("runopts.Setup opened no store")
	}
	var ts *timedStore
	if b.tr != nil {
		ts = &timedStore{inner: st, tr: b.tr}
		suite.E.SetStore(ts)
	}
	for _, i := range order {
		sec := serveSections[i]
		id := b.tr.begin("experiments.section", sec.id, parent)
		b.tr.setScope(id)
		text, err := sec.run(suite)
		b.tr.end(id)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", sec.id, err)
		}
		if text != b.golden[sec.id] {
			return outcome{}, fmt.Errorf("%s: warm render differs from the cold fill's", sec.id)
		}
	}
	es := suite.E.Stats()
	out := outcome{events: b.coldEvents, executed: es.Executed, hits: es.CacheHits}
	switch {
	case es.Executed != 0:
		return out, fmt.Errorf("warm serve simulated %d cells", es.Executed)
	case es.CacheHits != b.coldCells:
		return out, fmt.Errorf("warm serve hit %d cells, cold fill simulated %d", es.CacheHits, b.coldCells)
	case ts != nil && ts.served != b.coldEvents:
		return out, fmt.Errorf("warm serve returned cells of %d events, cold fill simulated %d", ts.served, b.coldEvents)
	}
	return out, nil
}

// coldFill renders every section into the freshly opened store, recording
// what each rendered, how many cells it simulated and their events.
func (b *bench) coldFill() error {
	b.golden = make(map[string]string, len(serveSections))
	b.tr.setScope(0)
	for _, sec := range serveSections {
		text, err := sec.run(b.suite)
		if err != nil {
			return fmt.Errorf("cold fill %s: %w", sec.id, err)
		}
		b.golden[sec.id] = text
	}
	es := b.suite.E.Stats()
	if es.CacheHits != 0 {
		return fmt.Errorf("cold fill found %d cells already in a fresh store", es.CacheHits)
	}
	b.coldEvents, b.coldCells = es.Events, es.Executed
	return nil
}

func serveOrder(seed int64, k int) []int {
	return rand.New(rand.NewPCG(uint64(seed), uint64(k))).Perm(len(serveSections))
}

var warmServe = &workload{
	why: "reproduce's rerun path: 11 cheap sections served warm from the memo store, no simulation",
	setup: func(b *bench) error {
		if err := b.openSuite(); err != nil {
			return err
		}
		if err := b.coldFill(); err != nil {
			return err
		}
		_, err := b.serve(0, serveOrder(b.seed, -1))
		return err
	},
	pass: func(b *bench, k int) []op {
		order := serveOrder(b.seed, k)
		return []op{{name: "serve", run: func(parent int32) (outcome, error) {
			out, err := b.serve(parent, order)
			if err == nil && k == 0 {
				b.record(simCounts{events: b.coldEvents}, b.goldenDigest())
			}
			return out, err
		}}}
	},
	// The check renders one section cold a second time, in a store of its
	// own, and compares it with the cold fill.
	check: func(b *bench) error {
		if err := b.openSuite(); err != nil {
			return err
		}
		for _, sec := range serveSections {
			if sec.id != serveRepeat {
				continue
			}
			text, err := sec.run(b.suite)
			if err != nil {
				return fmt.Errorf("%s: %w", sec.id, err)
			}
			if text != b.golden[sec.id] {
				return fmt.Errorf("%s: second cold render differs from the first", sec.id)
			}
		}
		return nil
	},
}

// goldenDigest hashes the cold fill's renders in catalog order: every
// simulated number the sections print.
func (b *bench) goldenDigest() []uint64 {
	h := fnv.New64a()
	for _, sec := range serveSections {
		h.Write([]byte(b.golden[sec.id]))
	}
	return []uint64{h.Sum64()}
}
