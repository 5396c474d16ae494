// Package rcce reimplements the communication substrate of the paper's
// baseline: Intel's RCCE library with the iRCCE non-blocking extension,
// running over the SCC's message-passing buffers. The Figure 9 baseline —
// the message-passing Laplace solver "under Linux" — is built on this
// package.
//
// Transfers are staged through the sender's own MPB and pulled by the
// receiver (RCCE's put/get building blocks):
//
//	sender:   wait slot idle -> stage chunk locally -> raise ready flag
//	receiver: wait ready flag -> pull chunk remotely -> clear flag
//
// Each core's MPB general area (after the mailbox and scratchpad regions
// reserved by the chip layout) holds a per-sender flag array and two
// staging slots. Two slots allow the two concurrent outbound transfers the
// ring exchanges of stencil codes need (one per direction); additional
// same-direction transfers serialize on the slot, which matches RCCE's
// synchronous character.
package rcce

import (
	"fmt"

	"metalsvm/internal/phys"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// flagBytes is the per-sender flag record in each core's MPB: one state
// byte plus a 16-bit chunk length and a reserved byte.
const flagBytes = 4

const (
	flagIdle  byte = 0
	flagReady byte = 1
)

// Comm is a communicator over a set of cores; rank i runs on Cores()[i].
type Comm struct {
	chip  *scc.Chip
	cores []int

	flagOff  int // receiver-side flag array, indexed by sender rank
	slotOff  int
	slotSize int

	// flagSig[core] fires whenever a flag in that core's MPB area changes.
	flagSig []*sim.Signal

	// barrierCount is the per-rank dissemination barrier epoch.
	barrierCount []uint8

	stats Stats
}

// Stats counts communication events.
type Stats struct {
	Sends    uint64
	Recvs    uint64
	Chunks   uint64
	Barriers uint64
}

// New creates a communicator. cores lists the participating cores in rank
// order (distinct, within range).
func New(chip *scc.Chip, cores []int) (*Comm, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("rcce: empty core list")
	}
	seen := make(map[int]bool, len(cores))
	for _, c := range cores {
		if c < 0 || c >= chip.Cores() {
			return nil, fmt.Errorf("rcce: core %d out of range", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("rcce: duplicate core %d", c)
		}
		seen[c] = true
	}
	general := chip.GeneralMPBSize()
	flagArea := (len(cores)*flagBytes + phys.CacheLine - 1) &^ (phys.CacheLine - 1)
	avail := general - flagArea
	if avail < 4*phys.CacheLine {
		return nil, fmt.Errorf("rcce: MPB general area too small (%d bytes)", general)
	}
	slot := avail / 2 / phys.CacheLine * phys.CacheLine
	c := &Comm{
		chip:         chip,
		cores:        append([]int(nil), cores...),
		flagOff:      chip.GeneralMPBOffset(),
		slotOff:      chip.GeneralMPBOffset() + flagArea,
		slotSize:     slot,
		flagSig:      make([]*sim.Signal, chip.Cores()),
		barrierCount: make([]uint8, len(cores)),
	}
	for i := range c.flagSig {
		c.flagSig[i] = sim.NewSignal(chip.Engine())
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.cores) }

// CoreOf returns the core running rank r.
func (c *Comm) CoreOf(r int) int { return c.cores[r] }

// flagAddr returns the offset of sender's flag record in receiver's MPB.
func (c *Comm) flagAddr(senderRank int) int { return c.flagOff + senderRank*flagBytes }

// slotAddr returns the offset of staging slot s in a sender's MPB.
func (c *Comm) slotAddr(s int) int { return c.slotOff + s*c.slotSize }

// slotFor picks the sender-side staging slot for a transfer by ring
// direction ("forward" destinations use slot 0, "backward" slot 1), so the
// two outbound halo exchanges of a stencil ring never collide — including
// at the wrap-around ranks, where a plain rank comparison would.
func (c *Comm) slotFor(meRank, toRank int) int {
	n := len(c.cores)
	if (toRank-meRank+n)%n <= n/2 {
		return 0
	}
	return 1
}

// readFlag reads sender's flag record at receiver (charged to onBehalf).
func (c *Comm) readFlag(onBehalfCore, receiverCore, senderRank int) (byte, uint16) {
	var rec [flagBytes]byte
	c.chip.MPBRead(onBehalfCore, receiverCore, c.flagAddr(senderRank), rec[:])
	return rec[0], uint16(rec[1]) | uint16(rec[2])<<8
}

// writeFlag updates sender's flag record at receiver and fires the
// receiver-area signal.
func (c *Comm) writeFlag(onBehalfCore, receiverCore, senderRank int, state byte, n uint16) {
	rec := [flagBytes]byte{state, byte(n), byte(n >> 8), 0}
	c.chip.MPBWrite(onBehalfCore, receiverCore, c.flagAddr(senderRank), rec[:])
	c.flagSig[receiverCore].Fire(c.chip.Core(onBehalfCore).Proc().LocalTime())
}

// stage copies a chunk into the sender's own staging slot (local MPB line
// writes, charged in one step).
func (c *Comm) stage(senderCore, slot int, data []byte) {
	c.chip.MPBWrite(senderCore, senderCore, c.slotAddr(slot), data)
	// MPBWrite charges a single line's cost; add the remaining lines.
	lines := (len(data) + phys.CacheLine - 1) / phys.CacheLine
	if lines > 1 {
		extra := c.chip.Config().Lat.MPBCoreCycles * uint64(lines-1)
		c.chip.Core(senderCore).Cycles(extra)
	}
}

// pull copies a chunk from the sender's staging slot into dst (remote MPB
// line reads).
func (c *Comm) pull(receiverCore, senderCore, slot int, dst []byte) {
	c.chip.MPBRead(receiverCore, senderCore, c.slotAddr(slot), dst)
	lines := (len(dst) + phys.CacheLine - 1) / phys.CacheLine
	if lines > 1 {
		// Per-line traffic for the remaining lines along the chip's route
		// (plus the link for a remote-chip sender), charged in bulk.
		hops, cross := c.chip.HopsCores(receiverCore, senderCore)
		per := c.chip.Config().Core.Clock.Cycles(c.chip.Config().Lat.MPBCoreCycles) +
			c.chip.Mesh().RoundTrip(hops)
		if cross {
			per += c.chip.Link().RoundTrip(phys.CacheLine)
		}
		c.chip.Core(receiverCore).Proc().Advance(per * sim.Duration(lines-1))
	}
}

// waitFlag parks the calling core until the flag record matches want.
func (c *Comm) waitFlag(callerCore, receiverCore, senderRank int, want byte) uint16 {
	for {
		state, n := c.readFlag(callerCore, receiverCore, senderRank)
		if state == want {
			return n
		}
		c.flagSig[receiverCore].Wait(c.chip.Core(callerCore).Proc())
	}
}

// Send transmits data from rank me to rank to, blocking until the receiver
// has pulled every chunk (RCCE's synchronous semantics).
func (c *Comm) Send(me int, data []byte, to int) {
	if me == to {
		panic("rcce: send to self")
	}
	c.stats.Sends++
	meCore, toCore := c.cores[me], c.cores[to]
	slot := c.slotFor(me, to)
	for off := 0; off < len(data); off += c.slotSize {
		end := off + c.slotSize
		if end > len(data) {
			end = len(data)
		}
		// Wait until the receiver consumed the previous chunk.
		c.waitFlag(meCore, toCore, me, flagIdle)
		c.stage(meCore, slot, data[off:end])
		c.writeFlag(meCore, toCore, me, flagReady, uint16(end-off))
		c.stats.Chunks++
	}
	// Block until the last chunk is consumed (synchronous completion).
	c.waitFlag(meCore, toCore, me, flagIdle)
}

// Recv receives exactly len(buf) bytes from rank from into buf.
func (c *Comm) Recv(me int, buf []byte, from int) {
	if me == from {
		panic("rcce: recv from self")
	}
	c.stats.Recvs++
	meCore, fromCore := c.cores[me], c.cores[from]
	slot := c.slotFor(from, me)
	for off := 0; off < len(buf); {
		n := int(c.waitFlag(meCore, meCore, from, flagReady))
		if off+n > len(buf) {
			panic(fmt.Sprintf("rcce: recv overflow: %d bytes announced, %d expected", n, len(buf)-off))
		}
		c.pull(meCore, fromCore, slot, buf[off:off+n])
		c.writeFlag(meCore, meCore, from, flagIdle, 0)
		off += n
	}
}

// Barrier synchronizes all ranks (dissemination over per-rank epoch bytes
// kept in the flag area's reserved byte... implemented with dedicated mail
// through the flag records of a virtual "barrier sender" — we reuse the
// flag array indexed by the partner rank with epoch numbers as payload).
func (c *Comm) Barrier(me int) {
	c.stats.Barriers++
	n := len(c.cores)
	c.barrierCount[me]++
	epoch := c.barrierCount[me]
	meCore := c.cores[me]
	for r := 1; r < n; r <<= 1 {
		to := (me + r) % n
		from := (me - r + n) % n
		// Announce our arrival epoch at the partner: write our epoch into
		// the length field of our flag record at the partner, state byte 2
		// ("barrier").
		c.writeBarrier(meCore, c.cores[to], me, epoch)
		c.waitBarrier(meCore, from, epoch)
	}
}

// writeBarrier stores the arrival epoch in the reserved byte of our flag
// record at the partner, so barriers never collide with in-flight sends.
func (c *Comm) writeBarrier(onBehalfCore, receiverCore, senderRank int, epoch uint8) {
	c.chip.MPBWrite(onBehalfCore, receiverCore, c.flagAddr(senderRank)+3, []byte{epoch})
	c.flagSig[receiverCore].Fire(c.chip.Core(onBehalfCore).Proc().LocalTime())
}

func (c *Comm) waitBarrier(meCore int, fromRank int, epoch uint8) {
	addr := c.flagAddr(fromRank) + 3
	for {
		var b [1]byte
		c.chip.MPBRead(meCore, meCore, addr, b[:])
		// Epochs are monotonically increasing (mod 256); accept >= target.
		if int8(b[0]-epoch) >= 0 {
			return
		}
		c.flagSig[meCore].Wait(c.chip.Core(meCore).Proc())
	}
}
