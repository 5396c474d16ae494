package mailbox

import (
	"encoding/binary"
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/phys"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// hardenedChip builds a chip with a fault injector in hardened mode.
func hardenedChip(t *testing.T, seed uint64, spec faults.Spec) (*sim.Engine, *scc.Chip) {
	t.Helper()
	eng, ch := newChip(t)
	ch.SetFaultInjector(faults.NewInjector(faults.Config{Seed: seed, Spec: spec}))
	ch.Harden()
	return eng, ch
}

// TestTruncatedFrameIsError is the regression test for the length check: a
// frame claiming an impossible payload length is dropped and counted as a
// short frame, not a panic or an out-of-bounds read, and its slot is freed.
func TestTruncatedFrameIsError(t *testing.T) {
	var line [phys.CacheLine]byte
	line[1] = 7
	binary.LittleEndian.PutUint16(line[2:], uint16(PayloadSize+3))
	msg, ok, mb := receiveForged(t, line, false)
	if ok {
		t.Fatalf("truncated frame consumed as mail: %+v", msg)
	}
	if st := mb.Stats(); st.ShortFrames != 1 || st.Recvs != 0 {
		t.Fatalf("stats %+v, want one short frame and no receive", st)
	}
	if mb.chip.MPB().Byte(1, slotOff(0)) != 0 {
		t.Fatal("the slot is still full after the drop")
	}
}

// TestHardenedTruncatedFrameHeldForRetransmit checks the hardened receiver
// discards a bad-length frame without advancing its acknowledgement, so the
// sender's retransmission timer still owns recovery.
func TestHardenedTruncatedFrameHeldForRetransmit(t *testing.T) {
	var line [phys.CacheLine]byte
	binary.LittleEndian.PutUint16(line[2:], uint16(PayloadSize+1))
	checkHeldForRetransmit(t, line, func(st Stats) uint64 { return st.ShortFrames })
}

// TestHardenedBadChecksumHeldForRetransmit: a frame whose checksum does not
// match is discarded and counted as corrupt the same way.
func TestHardenedBadChecksumHeldForRetransmit(t *testing.T) {
	var line [phys.CacheLine]byte
	line[0], line[1] = 1, 7
	binary.LittleEndian.PutUint16(line[2:], 4)
	binary.LittleEndian.PutUint16(line[4:], 1) // the first sequence number
	binary.LittleEndian.PutUint16(line[6:], frameSum(&line)+1)
	checkHeldForRetransmit(t, line, func(st Stats) uint64 { return st.CorruptDrops })
}

// checkHeldForRetransmit has a hardened receiver Check the forged line and
// demands a drop that count sees once, no receive, and a freed slot whose
// acknowledgement is still 0.
func checkHeldForRetransmit(t *testing.T, line [phys.CacheLine]byte, count func(Stats) uint64) {
	t.Helper()
	msg, ok, mb := receiveForged(t, line, true)
	if ok {
		t.Fatalf("discarded frame consumed as mail: %+v", msg)
	}
	if st := mb.Stats(); count(st) != 1 || st.Recvs != 0 {
		t.Fatalf("stats %+v, want the drop counted once and no receive", st)
	}
	var hdr [8]byte
	mb.chip.MPB().Read(1, slotOff(0), hdr[:])
	if hdr[0] != 0 || binary.LittleEndian.Uint16(hdr[4:]) != 0 {
		t.Fatalf("slot header after discard = %v", hdr)
	}
}

// TestHardenedFaultFreeRoundTrip exercises the sequence/ack protocol with
// the injector present but drawing no faults: mails flow in order and the
// retransmission timers retire without firing.
func TestHardenedFaultFreeRoundTrip(t *testing.T) {
	eng, ch := hardenedChip(t, 1, faults.Spec{})
	mb := New(ch, ModePolling)
	const rounds = 5
	var got []byte
	ch.Boot(0, func(c *cpu.Core) {
		for i := 0; i < rounds; i++ {
			p := make([]byte, 8)
			PutU32(p, 0, uint32(0x100+i))
			mb.Send(0, 1, byte(i), p)
		}
	})
	ch.Boot(1, func(c *cpu.Core) {
		for len(got) < rounds {
			if m, ok := mb.Check(1, 0); ok {
				if m.U32(0) != uint32(0x100+len(got)) {
					t.Errorf("payload %d = %#x", len(got), m.U32(0))
				}
				got = append(got, m.Type)
			} else {
				mb.WaitAnySignal(1).Wait(c.Proc())
			}
		}
	})
	eng.Run()
	eng.Shutdown()
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("order = %v", got)
		}
	}
	st := mb.Stats()
	if st.Retransmits != 0 || st.CorruptDrops != 0 || st.DupFrames != 0 {
		t.Fatalf("fault-free run recovered something: %+v", st)
	}
}

// TestHardenedRoundAllocatesNothing: once warm, a hardened send, its
// receive (the acknowledgement) and its retransmission timer's firing, which
// finds the mail acknowledged and retires, allocate nothing.
func TestHardenedRoundAllocatesNothing(t *testing.T) {
	eng, ch := hardenedChip(t, 1, faults.Spec{})
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
	if st := mb.Stats(); st.Retransmits != 0 || st.Renudges != 0 {
		t.Fatalf("fault-free rounds recovered something: %+v", st)
	}
	if allocs != 0 {
		t.Fatalf("a hardened send/receive/timer round allocates %v times, want 0", allocs)
	}
}

// TestHardenedDropsRecovered drops a large fraction of deposits and checks
// every mail still arrives exactly once, in order, via retransmission.
func TestHardenedDropsRecovered(t *testing.T) {
	var spec faults.Spec
	spec.Routes[faults.Mail].DropPermille = 600
	eng, ch := hardenedChip(t, 42, spec)
	mb := New(ch, ModePolling)
	const rounds = 10
	var got []byte
	ch.Boot(0, func(c *cpu.Core) {
		for i := 0; i < rounds; i++ {
			mb.Send(0, 1, byte(i), nil)
		}
	})
	ch.Boot(1, func(c *cpu.Core) {
		for len(got) < rounds {
			if m, ok := mb.Check(1, 0); ok {
				got = append(got, m.Type)
			} else {
				mb.WaitAnySignal(1).Wait(c.Proc())
			}
		}
	})
	eng.Run()
	eng.Shutdown()
	if len(got) != rounds {
		t.Fatalf("received %d of %d", len(got), rounds)
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("order = %v", got)
		}
	}
	if mb.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions despite 60% drop rate")
	}
}

// TestHardenedCorruptionRecovered flips bits in half the deposits and checks
// the checksum rejects every corrupted frame while retransmissions deliver
// clean copies with intact payloads.
func TestHardenedCorruptionRecovered(t *testing.T) {
	var spec faults.Spec
	spec.Routes[faults.Mail].CorruptPermille = 500
	eng, ch := hardenedChip(t, 7, spec)
	mb := New(ch, ModePolling)
	const rounds = 10
	var got []uint32
	ch.Boot(0, func(c *cpu.Core) {
		for i := 0; i < rounds; i++ {
			p := make([]byte, 4)
			PutU32(p, 0, uint32(0xabc0+i))
			mb.Send(0, 1, byte(i), p)
		}
	})
	ch.Boot(1, func(c *cpu.Core) {
		for len(got) < rounds {
			if m, ok := mb.Check(1, 0); ok {
				got = append(got, m.U32(0))
			} else {
				mb.WaitAnySignal(1).Wait(c.Proc())
			}
		}
	})
	eng.Run()
	eng.Shutdown()
	for i, v := range got {
		if v != uint32(0xabc0+i) {
			t.Fatalf("payload %d = %#x (corruption delivered)", i, v)
		}
	}
	st := mb.Stats()
	if st.CorruptDrops == 0 {
		t.Fatal("no corrupt frames detected despite 50% corruption rate")
	}
	if st.Retransmits == 0 {
		t.Fatal("corrupt frames were not retransmitted")
	}
}

// TestHardenedDuplicatesDiscarded makes every deposit schedule a stale
// redelivery and checks duplicates are discarded by sequence number.
func TestHardenedDuplicatesDiscarded(t *testing.T) {
	var spec faults.Spec
	spec.Routes[faults.Mail].DupPermille = 1000
	eng, ch := hardenedChip(t, 3, spec)
	mb := New(ch, ModePolling)
	const rounds = 3
	var got []byte
	ch.Boot(0, func(c *cpu.Core) {
		for i := 0; i < rounds; i++ {
			mb.Send(0, 1, byte(i), nil)
			// Space the sends out so each ghost lands in a free slot.
			c.Cycles(100000)
		}
	})
	ch.Boot(1, func(c *cpu.Core) {
		for len(got) < rounds {
			if m, ok := mb.Check(1, 0); ok {
				got = append(got, m.Type)
			} else {
				mb.WaitAnySignal(1).Wait(c.Proc())
			}
		}
		// Outlive the last ghost and drain it: it must read as no mail.
		c.Cycles(200000)
		if m, ok := mb.Check(1, 0); ok {
			t.Errorf("stale duplicate consumed: %+v", m)
		}
	})
	eng.Run()
	eng.Shutdown()
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("order = %v", got)
		}
	}
	if mb.Stats().DupFrames == 0 {
		t.Fatal("no duplicates discarded despite 100% dup rate")
	}
}

// TestHardenedStormDeterministic reruns a faulty mail storm with one seed
// and checks end time and counters are bit-identical and equal to golden
// values (which also pin every engine event the hardened send, receive and
// retransmission paths schedule), then checks a second seed actually draws
// a different schedule.
func TestHardenedStormDeterministic(t *testing.T) {
	var engA, engB sim.Stats
	run := func(seed uint64, es *sim.Stats) (sim.Time, Stats, faults.Stats) {
		var spec faults.Spec
		spec.Routes[faults.Mail].DropPermille = 200
		spec.Routes[faults.Mail].CorruptPermille = 100
		spec.Routes[faults.Mail].DupPermille = 100
		eng, ch := hardenedChip(t, seed, spec)
		mb := New(ch, ModePolling)
		n := 4
		for id := 0; id < n; id++ {
			id := id
			ch.Boot(id, func(c *cpu.Core) {
				next := (id + 1) % n
				prev := (id + n - 1) % n
				for i := 0; i < 8; i++ {
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
		if es != nil {
			*es = eng.Stats()
		}
		return end, mb.Stats(), ch.FaultInjector().Stats()
	}
	endA, mbA, fsA := run(11, &engA)
	endB, mbB, fsB := run(11, &engB)
	if endA != endB || mbA != mbB || fsA != fsB || engA != engB {
		t.Fatalf("same seed diverged: %d vs %d, %+v vs %+v", endA, endB, mbA, mbB)
	}
	if fsA.Injected() == 0 {
		t.Fatal("schedule injected nothing")
	}
	const wantEnd = sim.Time(565392600)
	wantMB := Stats{Sends: 32, BusyWaits: 18, Checks: 63, Recvs: 32,
		Retransmits: 15, Renudges: 5, CorruptDrops: 7, ShortFrames: 1}
	wantFS := faults.Stats{Decisions: 129,
		Drops:       [faults.NumRoutes]uint64{faults.Mail: 8},
		Dups:        [faults.NumRoutes]uint64{faults.Mail: 3},
		Corruptions: [faults.NumRoutes]uint64{faults.Mail: 7}}
	wantEng := sim.Stats{Events: 380, ClosureEvents: 169, ProcSwitches: 122,
		SelfWakes: 12, RunThroughs: 56, SyncInStep: 173, InPlaceSteps: 77}
	if endA != wantEnd || mbA != wantMB || fsA != wantFS || engA != wantEng {
		t.Fatalf("seed 11 moved:\nend %d want %d\nmailbox %+v\nwant    %+v\nfaults %+v\nwant   %+v\nengine %+v\nwant   %+v",
			endA, wantEnd, mbA, wantMB, fsA, wantFS, engA, wantEng)
	}
	endC, _, fsC := run(12, nil)
	if endA == endC && fsA == fsC {
		t.Fatal("different seeds drew identical schedules")
	}
}
