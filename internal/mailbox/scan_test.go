package mailbox

import (
	"bytes"
	"encoding/binary"
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/phys"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// TestScanAllocatesNothing: once a receiver has scanned, a ScanTake round
// over eight slots that skips the receiver's own, finds one mail, takes it
// and scans on to the end allocates nothing, and its empty probes run in place (the
// sender keeps syncing meanwhile, so the probes park rather than run
// through).
func TestScanAllocatesNothing(t *testing.T) {
	eng, ch := newChip(t)
	mb := New(ch, ModePolling)
	senders := []int{0, 5, 11, 17, 24, 30, 36, 47}
	payload := make([]byte, PayloadSize)
	sender := ch.Boot(36, func(c *cpu.Core) {
		for {
			mb.Send(36, 30, 7, payload)
			for j := 0; j < 20; j++ {
				c.Cycles(30)
				c.Sync()
			}
			c.Proc().Wait()
		}
	})
	received := 0
	ch.Boot(30, func(c *cpu.Core) {
		sig := mb.WaitAnySignal(30)
		for {
			seq := sig.Seq()
			got := false
			for i := 0; ; i++ {
				var ok bool
				if i, _, ok = mb.ScanTake(30, senders, i, 30); i == len(senders) {
					break
				}
				if ok {
					received++
					got = true
				}
			}
			if !got {
				sig.WaitSeq(c.Proc(), seq)
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
		t.Fatalf("a scan round allocates %v times, want 0", allocs)
	}
	if eng.Stats().InPlaceSteps == 0 {
		t.Fatalf("no probe ran in place: %+v", eng.Stats())
	}
}

// receiveForged puts line, its flag forced set, in core 1's receive slot
// for core 0 on a two-core chip, plain or hardened, and has core 1 Check
// the slot.
func receiveForged(t *testing.T, line [phys.CacheLine]byte, hardened bool) (Msg, bool, *System) {
	t.Helper()
	line[0] = 1
	eng := sim.NewEngine()
	ch, err := scc.New(eng, scc.Grid(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if hardened {
		ch.SetFaultInjector(faults.NewInjector(faults.Config{}), true)
	}
	mb := New(ch, ModePolling)
	ch.MPB().Write(1, slotOff(0), line[:])
	var msg Msg
	var ok bool
	ch.Boot(1, func(c *cpu.Core) { msg, ok = mb.Check(1, 0) })
	eng.Run()
	eng.Shutdown()
	return msg, ok, mb
}

// FuzzFrame checks the receive path's frame decoder on arbitrary lines: the
// first 32 bytes of raw, flag forced set, sit in core 1's slot for core 0
// and core 1 Checks them, plain or hardened. Check never panics; a
// delivered mail is counted as a receive and nothing else, and has a length
// within the frame's capacity, the line's type and payload, and, hardened, a
// matching checksum; a refused frame is counted as exactly one short,
// corrupt or duplicate frame, short when it is over-long and corrupt when
// only its checksum is wrong; and the slot is free afterwards. The seed
// corpus in testdata/fuzz holds a clean frame of each kind, an over-long
// frame, a bad checksum and a stale sequence number.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, hardened bool) {
		var line [phys.CacheLine]byte
		copy(line[:], raw)
		msg, ok, mb := receiveForged(t, line, hardened)
		line[0] = 1

		hdr, capacity := frameLayout(hardened)
		n := int(binary.LittleEndian.Uint16(line[2:]))
		badSum := hardened && binary.LittleEndian.Uint16(line[6:]) != frameSum(&line)
		st := mb.Stats()
		drops := st.ShortFrames + st.CorruptDrops + st.DupFrames
		switch {
		case ok && (drops != 0 || st.Recvs != 1):
			t.Fatalf("delivered, but counted %+v", st)
		case !ok && (drops != 1 || st.Recvs != 0):
			t.Fatalf("refused, but counted %+v", st)
		case ok && n > capacity:
			t.Fatalf("delivered a %d-byte payload, capacity %d", n, capacity)
		case ok && badSum:
			t.Fatal("delivered a hardened frame whose checksum does not match")
		case ok && (msg.From != 0 || msg.Type != line[1] ||
			!bytes.Equal(msg.Payload[:n], line[hdr:hdr+n]) ||
			!bytes.Equal(msg.Payload[n:], make([]byte, PayloadSize-n))):
			t.Fatalf("delivered %+v from line %x", msg, line)
		case n > capacity && st.ShortFrames != 1:
			t.Fatalf("an over-long frame was not counted short: %+v", st)
		case n <= capacity && badSum && st.CorruptDrops != 1:
			t.Fatalf("a bad checksum was not counted corrupt: %+v", st)
		}
		if mb.chip.MPB().Byte(1, slotOff(0)) != 0 {
			t.Fatal("the slot is still full after Check")
		}
	})
}
