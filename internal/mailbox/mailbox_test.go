package mailbox

import (
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

func newChip(t *testing.T) (*sim.Engine, *scc.Chip) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20
	cfg.SharedMem = 16 << 20
	ch, err := scc.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ch
}

func TestSendCheckRoundTrip(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	var got Msg
	var ok bool
	ch.Boot(0, func(c *cpu.Core) {
		p := make([]byte, 8)
		PutU32(p, 0, 0x1234)
		PutU32(p, 1, 42)
		mb.Send(0, 30, 7, p)
	})
	ch.Boot(30, func(c *cpu.Core) {
		for {
			if got, ok = mb.Check(30, 0); ok {
				return
			}
			mb.WaitAnySignal(30).Wait(c.Proc())
		}
	})
	eng.Run()
	eng.Shutdown()
	if !ok {
		t.Fatal("no mail received")
	}
	if got.From != 0 || got.Type != 7 || got.U32(0) != 0x1234 || got.U32(1) != 42 {
		t.Fatalf("msg = %+v", got)
	}
}

func TestCheckEmptySlot(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	var ok bool
	ch.Boot(1, func(c *cpu.Core) {
		_, ok = mb.Check(1, 2)
	})
	eng.Run()
	eng.Shutdown()
	if ok {
		t.Fatal("mail from nowhere")
	}
	if mb.Stats().Checks != 1 {
		t.Fatalf("checks = %d", mb.Stats().Checks)
	}
}

func TestSenderBusyWaitsOnFullSlot(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	var order []byte
	var secondSentAt sim.Time
	ch.Boot(0, func(c *cpu.Core) {
		mb.Send(0, 1, 1, nil)
		mb.Send(0, 1, 2, nil) // must block until core 1 consumes mail 1
		secondSentAt = c.Now()
	})
	consumeAt := sim.Microseconds(50)
	ch.Boot(1, func(c *cpu.Core) {
		c.Proc().Advance(consumeAt)
		c.Sync()
		for len(order) < 2 {
			if m, ok := mb.Check(1, 0); ok {
				order = append(order, m.Type)
			} else {
				mb.WaitAnySignal(1).Wait(c.Proc())
			}
		}
	})
	eng.Run()
	eng.Shutdown()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v (mails lost or reordered)", order)
	}
	if secondSentAt < consumeAt {
		t.Fatalf("second send completed at %v before receiver consumed at %v",
			secondSentAt.Microseconds(), consumeAt.Microseconds())
	}
	if mb.Stats().BusyWaits == 0 {
		t.Fatal("no busy wait recorded")
	}
}

// TestPlainRoundAllocatesNothing: once warm, one plain send and its
// receive allocate nothing.
func TestPlainRoundAllocatesNothing(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	payload := make([]byte, PayloadSize)
	sender := ch.Boot(0, func(c *cpu.Core) {
		for {
			mb.Send(0, 30, 7, payload)
			c.Proc().Wait()
		}
	})
	received := 0
	ch.Boot(30, func(c *cpu.Core) {
		for {
			if _, ok := mb.Check(30, 0); ok {
				received++
			} else {
				mb.WaitAnySignal(30).Wait(c.Proc())
			}
		}
	})
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		sender.Proc().Wake(eng.Now())
		eng.Run()
	})
	eng.Shutdown()
	if received != 102 {
		t.Fatalf("received %d mails, want 102", received)
	}
	if allocs != 0 {
		t.Fatalf("a send/receive round allocates %v times, want 0", allocs)
	}
}

// TestMailConsumedDuringLineReadDeliveredOnce posts an interrupt that lands
// inside Check's line read, after the flag peek: the handler consumes the
// same slot, so the outer Check finds the flag cleared under it and must
// report no mail rather than deliver the stale line a second time.
func TestMailConsumedDuringLineReadDeliveredOnce(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	var types []byte
	ch.Boot(0, func(c *cpu.Core) {
		mb.Send(0, 1, 7, nil)
	})
	ch.Boot(1, func(c *cpu.Core) {
		c.SetIRQHandler(func(c *cpu.Core, _ cpu.IRQ) {
			if m, ok := mb.Check(1, 0); ok {
				types = append(types, m.Type)
			}
		})
		for ch.MPB().Byte(1, slotOff(0)) == 0 {
			mb.WaitAnySignal(1).Wait(c.Proc())
		}
		c.Sync()
		// Check's own Sync runs in step at this time; the check cost
		// then carries the clock past the interrupt, so it is delivered
		// at the line read's first sync point.
		at := c.Now() + 1
		eng.At(at, func() { c.PostInterrupt(cpu.IRQTimer) })
		if m, ok := mb.Check(1, 0); ok {
			types = append(types, m.Type)
		}
	})
	eng.Run()
	eng.Shutdown()
	if len(types) != 1 || types[0] != 7 {
		t.Fatalf("delivered types %v, want the one mail [7]", types)
	}
	if st := mb.Stats(); st.Recvs != 1 {
		t.Fatalf("Recvs = %d, want 1", st.Recvs)
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	senders := []int{1, 2, 3, 4, 5, 6, 7}
	for _, s := range senders {
		s := s
		ch.Boot(s, func(c *cpu.Core) {
			mb.Send(s, 0, byte(s), nil)
		})
	}
	got := map[int]bool{}
	ch.Boot(0, func(c *cpu.Core) {
		for len(got) < len(senders) {
			progress := false
			for _, s := range senders {
				if m, ok := mb.Check(0, s); ok {
					got[m.From] = true
					progress = true
				}
			}
			if !progress {
				mb.WaitAnySignal(0).Wait(c.Proc())
			}
		}
	})
	eng.Run()
	eng.Shutdown()
	for _, s := range senders {
		if !got[s] {
			t.Fatalf("mail from %d lost", s)
		}
	}
}

func TestIPIModeRaisesInterrupts(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModeIPI)
	var gotIRQ bool
	var origin int
	var msg Msg
	ch.Boot(30, func(c *cpu.Core) {
		c.SetIRQHandler(func(c *cpu.Core, irq cpu.IRQ) {
			if irq != cpu.IRQIPI {
				return
			}
			gotIRQ = true
			for _, f := range ch.GIC().ClaimAll(30, nil) {
				origin = f
				if m, ok := mb.Check(30, f); ok {
					msg = m
				}
			}
		})
		c.Proc().Wait()
	})
	ch.Boot(0, func(c *cpu.Core) {
		c.Proc().Advance(sim.Microseconds(3))
		mb.Send(0, 30, 9, nil)
	})
	eng.Run()
	eng.Shutdown()
	if !gotIRQ {
		t.Fatal("no IPI delivered")
	}
	if origin != 0 {
		t.Fatalf("GIC origin = %d", origin)
	}
	if msg.Type != 9 {
		t.Fatalf("msg = %+v", msg)
	}
	if mb.Stats().IPIs != 1 {
		t.Fatalf("IPIs = %d", mb.Stats().IPIs)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	panicked := false
	ch.Boot(0, func(c *cpu.Core) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		mb.Send(0, 0, 1, nil)
	})
	eng.Run()
	eng.Shutdown()
	if !panicked {
		t.Fatal("self-send accepted")
	}
}

func TestOversizedPayloadPanics(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	panicked := false
	ch.Boot(0, func(c *cpu.Core) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		mb.Send(0, 1, 1, make([]byte, PayloadSize+1))
	})
	eng.Run()
	eng.Shutdown()
	if !panicked {
		t.Fatal("oversized payload accepted")
	}
}

// pingPong measures the half round-trip latency between two cores using
// raw check loops (no kernel), for n rounds.
func pingPong(t *testing.T, mode Mode, a, b, rounds int) sim.Duration {
	t.Helper()
	eng, ch := newChip(t)
	mb := New(ch, mode)
	var total sim.Duration
	recv := func(me, from int, c *cpu.Core) {
		for {
			if _, ok := mb.Check(me, from); ok {
				return
			}
			mb.WaitAnySignal(me).Wait(c.Proc())
		}
	}
	ch.Boot(a, func(c *cpu.Core) {
		start := c.Now()
		for i := 0; i < rounds; i++ {
			mb.Send(a, b, 1, nil)
			recv(a, b, c)
		}
		total = (c.Now() - start) / sim.Duration(2*rounds)
	})
	ch.Boot(b, func(c *cpu.Core) {
		for i := 0; i < rounds; i++ {
			recv(b, a, c)
			mb.Send(b, a, 1, nil)
		}
	})
	eng.Run()
	eng.Shutdown()
	return total
}

func TestPingPongLatencyGrowsWithDistance(t *testing.T) {
	near := pingPong(t, ModePolling, 0, 1, 50) // same tile
	far := pingPong(t, ModePolling, 0, 47, 50) // 8 hops
	if far <= near {
		t.Fatalf("far latency %v <= near %v", far, near)
	}
	// The gradient must be small: a few mesh cycles per hop, so the total
	// far/near ratio stays modest (the paper's Figure 6 shows a shallow
	// slope).
	if float64(far) > 3*float64(near) {
		t.Fatalf("slope too steep: near %v far %v", near, far)
	}
}

func TestDeterministicMailStorm(t *testing.T) {
	run := func() sim.Time {
		eng, ch := newChip(t)
		mb := New(ch, ModePolling)
		n := 8
		for id := 0; id < n; id++ {
			id := id
			ch.Boot(id, func(c *cpu.Core) {
				next := (id + 1) % n
				prev := (id + n - 1) % n
				for i := 0; i < 10; i++ {
					mb.Send(id, next, byte(i), nil)
					for {
						if _, ok := mb.Check(id, prev); ok {
							break
						}
						mb.WaitAnySignal(id).Wait(c.Proc())
					}
				}
			})
		}
		end := eng.Run()
		eng.Shutdown()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
