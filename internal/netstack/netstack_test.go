package netstack

import (
	"testing"

	"tsxhpc/internal/core"
	"tsxhpc/internal/sim"
)

func pipe(mode core.LockMode, capacity int) (*sim.Machine, *Conn) {
	m := sim.New(sim.DefaultConfig())
	st := New(m, mode)
	return m, st.NewConn(capacity)
}

func allModes() []core.LockMode {
	return []core.LockMode{
		core.ModeMutex, core.ModeTSXAbort, core.ModeTSXCond,
		core.ModeMutexBusyWait, core.ModeTSXBusyWait,
	}
}

// TestFIFOIntegrityAllModes streams packets through one channel under every
// locking-module mode and checks exact FIFO delivery and byte accounting.
func TestFIFOIntegrityAllModes(t *testing.T) {
	for _, mode := range allModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m, cn := pipe(mode, 4) // small ring: exercises full-ring waits
			const n = 120
			var got []uint64
			m.Run(2, func(c *sim.Context) {
				if c.ID() == 0 {
					for {
						bytes, seq, ok := cn.C2S.Recv(c)
						if !ok {
							break
						}
						if bytes != 256 {
							t.Errorf("packet %d size %d", seq, bytes)
						}
						got = append(got, seq)
						c.Compute(50)
					}
					return
				}
				for i := 0; i < n; i++ {
					cn.C2S.Send(c, 256, uint64(i))
				}
				cn.C2S.Close(c)
			})
			if len(got) != n {
				t.Fatalf("received %d of %d packets", len(got), n)
			}
			for i, seq := range got {
				if seq != uint64(i) {
					t.Fatalf("FIFO violated at %d: seq %d", i, seq)
				}
			}
			if cn.C2S.BytesEnqueued() != 256*n {
				t.Fatalf("bytes = %d", cn.C2S.BytesEnqueued())
			}
			if err := cn.C2S.CheckDrained(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReceiverBlocksUntilData checks the monitor wait path: a reader on an
// empty socket must not return until data (or close) arrives.
func TestReceiverBlocksUntilData(t *testing.T) {
	for _, mode := range []core.LockMode{core.ModeMutex, core.ModeTSXCond} {
		m, cn := pipe(mode, 8)
		var recvAt uint64
		m.Run(2, func(c *sim.Context) {
			if c.ID() == 0 {
				_, _, ok := cn.C2S.Recv(c)
				if !ok {
					t.Errorf("%v: unexpected EOF", mode)
				}
				recvAt = c.Now()
				return
			}
			c.Compute(50000)
			cn.C2S.Send(c, 64, 0)
			cn.C2S.Close(c)
		})
		if recvAt < 50000 {
			t.Errorf("%v: receiver returned at %d, before data existed", mode, recvAt)
		}
	}
}

// TestSenderBlocksWhenRingFull checks flow control: with a full ring the
// sender must wait for the reader.
func TestSenderBlocksWhenRingFull(t *testing.T) {
	m, cn := pipe(core.ModeMutex, 2)
	var lastSendDone uint64
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			c.Compute(80000)
			for {
				if _, _, ok := cn.C2S.Recv(c); !ok {
					break
				}
			}
			return
		}
		for i := 0; i < 6; i++ {
			cn.C2S.Send(c, 64, uint64(i))
		}
		lastSendDone = c.Now()
		cn.C2S.Close(c)
	})
	if lastSendDone < 80000 {
		t.Fatalf("sender finished at %d without waiting for the slow reader", lastSendDone)
	}
}

func TestCloseWakesBlockedReader(t *testing.T) {
	for _, mode := range allModes() {
		m, cn := pipe(mode, 8)
		eof := false
		m.Run(2, func(c *sim.Context) {
			if c.ID() == 0 {
				_, _, ok := cn.C2S.Recv(c)
				eof = !ok
				return
			}
			c.Compute(20000)
			cn.C2S.Close(c)
		})
		if !eof {
			t.Fatalf("%v: blocked reader not released by Close", mode)
		}
	}
}

func TestBidirectionalPingPong(t *testing.T) {
	for _, mode := range allModes() {
		m, cn := pipe(mode, 8)
		const n = 50
		m.Run(2, func(c *sim.Context) {
			if c.ID() == 0 { // server: echo
				for {
					bytes, seq, ok := cn.C2S.Recv(c)
					if !ok {
						break
					}
					cn.S2C.Send(c, bytes*2, seq)
				}
				cn.S2C.Close(c)
				return
			}
			for i := 0; i < n; i++ {
				cn.C2S.Send(c, 32, uint64(i))
				bytes, seq, ok := cn.S2C.Recv(c)
				if !ok || seq != uint64(i) || bytes != 64 {
					t.Errorf("%v: echo %d -> %d/%d/%v", mode, i, bytes, seq, ok)
					break
				}
			}
			cn.C2S.Close(c)
		})
	}
}

func TestPendingAndDrainChecks(t *testing.T) {
	m, cn := pipe(core.ModeMutex, 8)
	m.Run(1, func(c *sim.Context) {
		cn.C2S.Send(c, 10, 0)
		cn.C2S.Send(c, 10, 1)
	})
	if cn.C2S.Pending() != 2 {
		t.Fatalf("pending = %d", cn.C2S.Pending())
	}
	if err := cn.C2S.CheckDrained(); err == nil {
		t.Fatal("CheckDrained should fail on a non-empty, unclosed ring")
	}
}

// batchScenario streams 4×200 packets through four connections with
// SendBatch and RecvBatch on all eight threads of the default machine, so
// HyperThread siblings share cores and the rings fill and drain in
// batches. It returns the region's Result and the packets received.
func batchScenario(mode core.LockMode) (sim.Result, int) {
	m := sim.New(sim.DefaultConfig())
	st := New(m, mode)
	conns := make([]*Conn, 4)
	for i := range conns {
		conns[i] = st.NewConn(8)
	}
	got := 0
	res := m.Run(8, func(c *sim.Context) {
		cn := conns[c.ID()%4]
		if c.ID() >= 4 {
			for {
				n, _, _, ok := cn.C2S.RecvBatch(c, 5)
				if !ok {
					return
				}
				got += n
				c.Compute(200)
			}
		}
		for seq := uint64(0); seq < 200; seq += 10 {
			cn.C2S.SendBatch(c, 256, seq, 10)
		}
		cn.C2S.Close(c)
	})
	return res, got
}

// TestBatchSwitches pins the simulated events and the carrier switches of
// one SendBatch/RecvBatch scenario per stack. Events are the schedule and
// must not move with a host-side change. Switches are host cost: before
// ring updates, TL2 write-backs and lock releases ran as runs of stores
// and charges taken in place (sim.Context.StoreN), the same scenario took
// 866 (mutex), 8261 (tl2) and 5927 (tsx.cond) switches. The eliding stack
// stores one by one inside its transactions and took no fallback here, so
// its count is unchanged.
func TestBatchSwitches(t *testing.T) {
	for _, tc := range []struct {
		mode             core.LockMode
		events, switches uint64
	}{
		{core.ModeMutex, 15917, 765},
		{core.ModeTL2, 17796, 5466},
		{core.ModeTSXCond, 14812, 5927},
	} {
		res, got := batchScenario(tc.mode)
		if got != 800 {
			t.Errorf("%v: received %d of 800 packets", tc.mode, got)
		}
		if res.Events != tc.events || res.Switches != tc.switches {
			t.Errorf("%v: %d events and %d switches, want %d and %d",
				tc.mode, res.Events, res.Switches, tc.events, tc.switches)
		}
	}
}
