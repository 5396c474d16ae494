package mailbox

import (
	"encoding/binary"

	"metalsvm/internal/faults"
	"metalsvm/internal/phys"
	"metalsvm/internal/profile"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// mailer is one core's charged mail operation, run as the steps of one
// sim.Proc.Spin, which the engine runs in place: a receive (slot probes,
// then Take's line read, frame checks and release write) or a round of Send
// (probe, deposit through the fault injector, notifications, IPI,
// retransmission timer). Records are reused, with their step bound once.
type mailer struct {
	s        *System
	core     int
	phase    chainPhase
	hardened bool   // the frame's protocol
	ok       bool   // receive: a fresh mail was taken
	discard  bool   // receive: the frame was malformed and dropped
	typ      byte   // send: the mail's type
	ack      uint16 // receive: the release write's acknowledgement
	senders  []int  // receive: the slots to probe
	one      [1]int // receive: a one-slot chain's senders
	skip, i  int    // receive: the core not probed, and the slot at hand
	to       int    // send: the receiver
	now      sim.Time
	charge   sim.Charge // the MPB access or IPI raise in flight
	line     [phys.CacheLine]byte
	step     func() (sim.Duration, bool, bool) // next, bound once
	free     *mailer                           // the next free record
}

// chainPhase is where a mailer stands: each is one Spin step.
type chainPhase uint8

const (
	scanEnter   chainPhase = iota // enter the next slot's profiler context, then Sync
	scanCharge                    // Advance by the slot check's charge
	scanPeek                      // count the check and peek at the flag
	takeRead                      // charge the line read
	takeCheck                     // read the line, check the frame, charge the release
	takeRelease                   // write the release, wake the sender
	sendProbe                     // check liveness, mask interrupts, charge the header read
	sendProbed                    // read the header: deposit, or report the slot busy
	sendDelayed                   // a fault-injected delay has passed: draw the drop
	sendWrite                     // the line write's charge is in: land the frame
	sendLost                      // a lost deposit's charge is in
	sendRaised                    // the IPI's charge is in: its effect
	sendBusy                      // done: the slot still holds unconsumed mail
	sendOver                      // done: sent, or dropped for a crashed receiver
)

func (m *mailer) next() (sim.Duration, bool, bool) {
	if d, ok := m.charge.Transit(); ok {
		return d, true, false
	}
	s, ch := m.s, m.s.chip
	switch m.phase {
	case scanCharge:
		m.phase = scanPeek
		return ch.MailCheckLatency(), false, false
	case scanPeek:
		s.stats.Checks++
		if ch.MPB().Byte(m.core, slotOff(m.senders[m.i])) != 0 {
			return m.access(m.core, takeCheck)
		}
		s.prof.Exit(m.core, ch.Core(m.core).Now())
		m.i++
	case takeRead:
		return m.access(m.core, takeCheck)
	case takeCheck:
		return m.check()
	case takeRelease:
		sender := m.senders[m.i]
		var ack [8]byte
		if m.hardened {
			binary.LittleEndian.PutUint16(ack[4:], m.ack)
		}
		ch.MPB().Write(m.core, slotOff(sender), ack[:])
		now := ch.Core(m.core).Now()
		if !m.discard || !m.hardened {
			if m.ok { // the caller copies the payload out of the line
				s.stats.Recvs++
				ch.Tracer().Emit(now, m.core, trace.KindMailRecv, uint64(sender), uint64(m.line[1]))
			}
			// The slot is free for the sender's next mail: wake its probe.
			s.freeSignal(s.pair(m.core, sender)).Fire(now)
		}
		s.prof.Exit(m.core, now)
		return 0, false, true
	case sendProbe:
		// Re-check liveness each round: the receiver may crash while we
		// wait on a slot it will never drain.
		if ch.CoreCrashed(m.to) {
			s.stats.DeadDrops++
			m.phase = sendOver
			return 0, false, true
		}
		ch.Core(m.core).SetInterruptsEnabled(false)
		return m.access(m.to, sendProbed)
	case sendProbed:
		// The receiver must have consumed the previous mail; a hardened
		// sender's pending mail must also be acknowledged: a deposit lost
		// in the mesh (or discarded as corrupt) leaves the flag clear too,
		// and the sender waits for its retransmission rather than
		// overwrite it.
		p, off := s.pair(m.to, m.core), slotOff(m.core)
		if ch.MPB().Byte(m.to, off) != 0 || m.hardened && s.pending[p].active &&
			seqAfter(s.pending[p].seq, ch.MPB().Read16(m.to, off+4)) {
			m.phase = sendBusy
			return 0, false, true
		}
		if m.hardened {
			s.sendSeq[p]++
			binary.LittleEndian.PutUint16(m.line[4:], s.sendSeq[p])
			binary.LittleEndian.PutUint16(m.line[6:], frameSum(&m.line))
			s.pending[p] = pendingMail{active: true, seq: s.sendSeq[p], line: m.line}
		}
		return m.deposit()
	case sendDelayed:
		return m.deposit()
	case sendWrite:
		m.land()
		fallthrough
	case sendLost:
		return m.notify()
	case sendRaised:
		ch.IPIEffect(m.core, m.to)
		return m.finish()
	}
	if m.i < len(m.senders) && m.senders[m.i] == m.skip {
		m.i++
	}
	if m.i == len(m.senders) {
		return 0, false, true
	}
	s.checkPair(m.core, m.senders[m.i])
	s.prof.EnterIfIdle(m.core, profile.MailboxWait, ch.Core(m.core).Now())
	m.phase = scanCharge
	return 0, true, false
}

// access starts an MPB access to owner's buffer; phase next applies it.
func (m *mailer) access(owner int, next chainPhase) (sim.Duration, bool, bool) {
	m.phase = next
	return m.charge.Begin(m.s.chip.MPBAccess(m.core, owner))
}

// check reads the line the take's read charge has landed on and checks the
// frame, then starts the release write's charge.
func (m *mailer) check() (sim.Duration, bool, bool) {
	s, r := m.s, m.core
	sender := m.senders[m.i]
	s.chip.MPB().Read(r, slotOff(sender), m.line[:])
	if m.line[0] == 0 {
		// The mail vanished between the flag peek and the line read: this
		// core's own interrupt handler consumed it while the read was in
		// flight (a scan and the interrupt path may interleave).
		s.prof.Exit(r, s.chip.Core(r).Now())
		return 0, false, true
	}
	m.hardened = s.chip.FaultsHardened()
	p := s.pair(r, sender)
	n := int(binary.LittleEndian.Uint16(m.line[2:]))
	seq := binary.LittleEndian.Uint16(m.line[4:])
	switch {
	case n > PayloadSize:
		// A frame this long cannot have been sent; drop it rather than read
		// out of bounds.
		s.stats.ShortFrames++
		m.discard = true
	case m.hardened && binary.LittleEndian.Uint16(m.line[6:]) != frameSum(&m.line):
		s.stats.CorruptDrops++
		m.discard = true
	case m.hardened && !seqAfter(seq, s.lastRecv[p]):
		// Stale duplicate redelivery: drop it, re-acknowledge, and hand the
		// slot back to the sender.
		s.stats.DupFrames++
	default:
		m.ok = true
		if m.hardened {
			s.lastRecv[p] = seq
		}
	}
	// Release the slot with one charged header write: the flag clears, and
	// hardened, the sequence field carries the receiver's cumulative
	// acknowledgement. A hardened discard leaves the frame unacknowledged:
	// the sender's retransmission timer, not a wake-up, redeposits a clean
	// copy.
	m.ack = s.lastRecv[p]
	return m.access(r, takeRelease)
}

// deposit starts the line write into the receiver's slot through the fault
// injector: the deposit may be delayed (a step's Advance, after which it
// goes on from the drop draw), dropped in the mesh (the sender pays the
// access but the frame never lands), corrupted in flight, or redelivered
// later as a stale duplicate. Without an injector it is one line write.
func (m *mailer) deposit() (sim.Duration, bool, bool) {
	ch := m.s.chip
	inj := ch.FaultInjector()
	if m.phase != sendDelayed {
		if !ch.SameChip(m.core, m.to) && inj.LinkPartitioned(ch.Core(m.core).Now()) {
			// The inter-chip link is partitioned: the frame cannot cross.
			// The sender pays the access; the retransmission timer
			// redelivers after the heal.
			inj.NotePartitionDrop()
			m.inject(faults.Link, faults.Drop)
			return m.access(m.to, sendLost)
		}
		if cyc := inj.DelayCycles(faults.Global, faults.Mail); cyc != 0 {
			m.inject(faults.Mail, faults.Delay)
			m.phase = sendDelayed
			return ch.Config().Core.Clock.Cycles(cyc), false, false
		}
	}
	if inj.Drop(faults.Mail) {
		m.inject(faults.Mail, faults.Drop)
		return m.access(m.to, sendLost)
	}
	// A hardened sender's clean copy is in its pending buffer already.
	if inj.Corrupt(faults.Mail, m.line[1:]) {
		m.inject(faults.Mail, faults.Corrupt)
	}
	return m.access(m.to, sendWrite)
}

// inject traces a fault injected into the operation.
func (m *mailer) inject(r faults.Route, k faults.Kind) {
	m.s.chip.Tracer().Emit(m.s.chip.Core(m.core).Now(), m.core, trace.KindFaultInject, uint64(r), uint64(k))
}

// land writes the frame into the slot and draws a duplicate.
func (m *mailer) land() {
	s, ch := m.s, m.s.chip
	from, to, off := m.core, m.to, slotOff(m.core)
	ch.MPB().Write(to, off, m.line[:])
	inj := ch.FaultInjector()
	if !inj.Dup(faults.Mail) {
		return
	}
	m.inject(faults.Mail, faults.Dup)
	at := ch.Core(from).Now() + ch.Config().Core.Clock.Cycles(inj.DupDelayCycles())
	// The closure gets its own copy, so only a duplicated frame moves a
	// line to the heap.
	ghost := m.line
	ch.Engine().At(at, func() {
		// The stale copy lands only if the slot is free by then; the
		// hardened receiver discards it by sequence number, the plain
		// one consumes it as a fresh (wrong) mail.
		if !ch.SameChip(from, to) && inj.LinkPartitioned(at) {
			inj.NotePartitionDrop()
			return
		}
		if ch.MPB().Byte(to, off) != 0 {
			return
		}
		ch.MPB().Write(to, off, ghost[:])
		s.renotify(from, to, at)
	})
}

// notify counts the send and fires its wake-ups, then, in IPI mode, starts
// the interrupt's charge.
func (m *mailer) notify() (sim.Duration, bool, bool) {
	s, ch := m.s, m.s.chip
	s.stats.Sends++
	m.now = ch.Core(m.core).Now()
	ch.Tracer().Emit(m.now, m.core, trace.KindMailSend, uint64(m.to), uint64(m.typ))
	s.anyFull[m.to].Fire(m.now)
	if s.mode != ModeIPI {
		return m.finish()
	}
	s.stats.IPIs++
	m.phase = sendRaised
	return m.charge.Begin(ch.IPICharge(m.core, m.to))
}

// finish arms a hardened mail's retransmission timer and ends the round.
func (m *mailer) finish() (sim.Duration, bool, bool) {
	if s := m.s; m.hardened {
		s.armRetx(m.core, m.to, s.pending[s.pair(m.to, m.core)].seq, m.now)
	}
	m.phase = sendOver
	return 0, false, true
}
