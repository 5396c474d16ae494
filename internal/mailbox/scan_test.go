package mailbox

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/phys"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// TestScanAllocatesNothing: once a receiver has scanned, a scan over eight
// slots that skips the receiver's own, finds one mail, takes it and scans
// on to the end allocates nothing, and its empty probes run in place (the
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
				if i = mb.Scan(30, senders, i, 30); i == len(senders) {
					break
				}
				if _, ok, _ := mb.Take(30, senders[i]); ok {
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

// FuzzFrame checks the receive path's frame decoder on arbitrary lines: the
// first 32 bytes of raw, flag forced set, sit in core 1's slot for core 0
// and core 1 receives them, plain or hardened. Receive never panics; a
// delivered mail has no error, a length within the frame's capacity, the
// line's type and payload, and, hardened, a matching checksum; a refused
// frame's error is a *FrameError; and the slot is free afterwards. The seed
// corpus in testdata/fuzz holds a clean frame of each kind, an over-long
// frame, a bad checksum and a stale sequence number.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, hardened bool) {
		var line [phys.CacheLine]byte
		copy(line[:], raw)
		if line[0] == 0 {
			line[0] = 1
		}
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
		var rerr error
		ch.Boot(1, func(c *cpu.Core) { msg, ok, rerr = mb.Receive(1, 0) })
		eng.Run()
		eng.Shutdown()

		hdr, capacity := frameLayout(hardened)
		n := int(binary.LittleEndian.Uint16(line[2:]))
		var fe *FrameError
		switch {
		case ok && rerr != nil:
			t.Fatalf("delivered with error %v", rerr)
		case ok && n > capacity:
			t.Fatalf("delivered a %d-byte payload, capacity %d", n, capacity)
		case ok && hardened && binary.LittleEndian.Uint16(line[6:]) != frameSum(&line):
			t.Fatal("delivered a hardened frame whose checksum does not match")
		case ok && (msg.From != 0 || msg.Type != line[1] ||
			!bytes.Equal(msg.Payload[:n], line[hdr:hdr+n]) ||
			!bytes.Equal(msg.Payload[n:], make([]byte, PayloadSize-n))):
			t.Fatalf("delivered %+v from line %x", msg, line)
		case rerr != nil && !errors.As(rerr, &fe):
			t.Fatalf("error %v is not a *FrameError", rerr)
		}
		if ch.MPB().Byte(1, slotOff(0)) != 0 {
			t.Fatal("the slot is still full after Receive")
		}
	})
}
