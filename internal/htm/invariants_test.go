package htm

import (
	"fmt"
	"strings"
	"testing"

	"tsxhpc/internal/sim"
)

// TestCommitHookFiresPerCommit: the hook observes exactly the successful
// commits, inside the commit instant (the write-back is already visible).
func TestCommitHookFiresPerCommit(t *testing.T) {
	m := sim.New(sim.Config{Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1})
	r := New(m)
	a := m.Mem.AllocLine(8)
	fired := 0
	r.CommitHook = func(c *sim.Context) {
		fired++
		if got := m.Mem.ReadRaw(a); got != uint64(fired) {
			t.Errorf("hook %d: write-back not visible, word = %d", fired, got)
		}
	}
	m.Run(1, func(c *sim.Context) {
		for i := 1; i <= 5; i++ {
			tx := r.Begin(c)
			tx.Store(a, uint64(i))
			tx.Commit()
		}
		// An explicit abort must not fire the hook.
		r.Try(c, func(tx *Txn) {
			tx.Store(a, 999)
			tx.Abort(Explicit)
		})
	})
	if fired != 5 {
		t.Fatalf("hook fired %d times, want 5", fired)
	}
	if r.Stats.Commits != 5 || r.Stats.Aborts[Explicit] != 1 {
		t.Fatalf("stats: %+v", r.Stats)
	}
}

// TestCommitCatchesTornWriteSet: with Invariants armed, a transaction whose
// write mark was stripped without a doom (here simulated by clearing the
// marks directly — the corruption the check exists to catch) fails its
// commit with the typed htm-writeset violation.
func TestCommitCatchesTornWriteSet(t *testing.T) {
	m := sim.New(sim.Config{Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1, Invariants: true})
	r := New(m)
	a := m.Mem.AllocLine(8)
	defer func() {
		p := recover()
		ie, ok := p.(*sim.InvariantError)
		if !ok {
			t.Fatalf("recovered %v, want *sim.InvariantError", p)
		}
		if ie.Point != "htm-writeset" {
			t.Fatalf("violation point = %q, want htm-writeset", ie.Point)
		}
	}()
	m.Run(1, func(c *sim.Context) {
		tx := r.Begin(c)
		tx.Store(a, 7)
		m.ClearTxMarks(c, sim.LineOf(a))
		tx.Commit()
	})
	t.Fatal("torn write set committed without a violation")
}

// TestBeginCatchesStaleDirectoryBit: with Invariants armed, a reader bit
// that a thread's finished transaction left in the conflict directory (here
// planted directly) fails that thread's next Begin with the typed htm-pool
// violation naming the line.
func TestBeginCatchesStaleDirectoryBit(t *testing.T) {
	m := sim.New(sim.Config{Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1, Invariants: true})
	r := New(m)
	a := m.Mem.AllocLine(8)
	line := sim.LineOf(a)
	defer func() {
		p := recover()
		ie, ok := p.(*sim.InvariantError)
		if !ok {
			t.Fatalf("recovered %v, want *sim.InvariantError", p)
		}
		if ie.Point != "htm-pool" || !strings.Contains(ie.Detail, fmt.Sprintf("%#x", line)) {
			t.Fatalf("violation = %v, want htm-pool naming line %#x", ie, line)
		}
	}()
	m.Run(1, func(c *sim.Context) {
		tx := r.Begin(c)
		tx.Store(a, 1)
		tx.Commit()
		i, _ := r.lines.Place(line)
		w, bit := dirReaderBit(c.ID())
		r.lines.Vals[i][w] |= bit
		r.Begin(c)
	})
	t.Fatal("stale directory bit survived into the next Begin")
}

// TestCommitCleanWithInvariants: the same shape without corruption commits
// fine under the armed checks (no false positive on the happy path).
func TestCommitCleanWithInvariants(t *testing.T) {
	m := sim.New(sim.Config{Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1, Invariants: true})
	r := New(m)
	a := m.Mem.AllocLine(8)
	m.Run(2, func(c *sim.Context) {
		for done := 0; done < 20; {
			cause, _ := r.Try(c, func(tx *Txn) {
				tx.Store(a, tx.Load(a)+1)
			})
			if cause == NoAbort {
				done++
				continue
			}
			// Randomized backoff breaks the symmetric retry livelock, exactly
			// as the real elision wrapper (tm.elide) does.
			c.Compute(uint64(c.Rand.Int63n(256)) + 1)
		}
	})
	if got := m.Mem.ReadRaw(a); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
}
