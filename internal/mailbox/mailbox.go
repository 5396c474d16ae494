// Package mailbox implements MetalSVM's asynchronous mailbox system on top
// of the SCC's message-passing buffers, as described in Section 5 of the
// paper.
//
// For each communication pair one cache-line-sized mailbox is reserved in
// the receiver's MPB — one 32-byte slot per possible sender, so the paper's
// 48-core chip spends 1.5 KiB per core and larger topologies scale with
// the configured core count (scc.Validate sizes the MPB). A slot is a
// single-reader/single-writer channel: only the sender writes payload and
// sets the flag; only the receiver reads and clears the flag. A sender that
// finds the slot still full busy-waits until the receiver has consumed the
// previous mail.
//
// Two delivery modes reproduce the paper's two curves:
//
//   - ModePolling: receivers discover mail only by checking slots (the
//     kernel checks on every interrupt and in the idle loop). Checking one
//     slot costs ~100 core cycles, so the cost grows with the number of
//     active cores.
//   - ModeIPI: after depositing a mail the sender raises an IPI through the
//     GIC; the receiver's handler asks the GIC which core raised it and
//     checks only that slot.
//
// # Frame
//
// Every mail is one line: a flag byte, a type byte, a 16-bit payload
// length, a 16-bit sequence number, a 16-bit checksum and PayloadSize
// payload bytes. A plain sender leaves the sequence number and checksum
// zero and a plain receiver ignores them; an MPB operation costs the same
// simulated time whatever the line holds.
//
// # Hardened steps
//
// There is one protocol: Send is one probe-deposit-notify loop and the
// receive chain (Check, ScanTake, Take) one read-validate-release path.
// When the chip runs hardened (scc.Chip.FaultsHardened), steps inside them
// change: the sender fills in the frame's sequence number and checksum;
// the receiver checks them, and its flag clear also publishes the last
// in-order sequence it consumed, a cumulative acknowledgement; the sender's
// probe also requires its previous mail acknowledged; and the sender keeps
// that mail buffered and retransmits it on a simulated-time timeout with
// exponential backoff. Every fault then recovers:
//
//   - drop: the flag never lands; the retransmission timer redeposits.
//   - corruption: the receiver's checksum fails; it frees the slot without
//     advancing the acknowledgement and the timer redeposits a clean copy.
//   - duplicate: the sequence number is not newer than the last delivery;
//     the receiver discards and re-acknowledges.
//   - dropped IPI: the timer re-fires the notification for a deposited but
//     unconsumed mail.
//
// The added steps, forced on, move fault-free results. The plain steps are
// the paper's.
package mailbox

import (
	"encoding/binary"
	"fmt"
	"io"

	"metalsvm/internal/faults"
	"metalsvm/internal/phys"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// frameHeader is the bytes before a frame's payload: flag, type, length,
// sequence number and checksum.
const frameHeader = 8

// PayloadSize is the usable bytes per mail: one line minus the header.
const PayloadSize = phys.CacheLine - frameHeader

// RetxTimeoutCoreCycles is the hardened sender's base retransmission
// timeout in core cycles (~37.5 us at the paper's 533 MHz). The timeout
// doubles per attempt up to RetxTimeoutCoreCycles << RetxBackoffShiftCap.
const RetxTimeoutCoreCycles = 20000

// RetxBackoffShiftCap bounds the retransmission backoff exponent.
const RetxBackoffShiftCap = 6

// RetxMaxFires bounds the total firings of one mail's retransmission
// timer. A receiver that has exited (or sits in a compute phase for the
// rest of the run) never consumes the mail, and an unbounded timer would
// keep the event queue alive forever; past the bound the sender gives up
// and the watchdog owns the diagnosis.
const RetxMaxFires = 64

// Mode selects how receivers learn about new mail.
type Mode int

const (
	// ModePolling relies on periodic scans of all receive slots.
	ModePolling Mode = iota
	// ModeIPI raises an interrupt identifying the sender.
	ModeIPI
)

func (m Mode) String() string {
	if m == ModeIPI {
		return "ipi"
	}
	return "polling"
}

// Msg is one received mail.
type Msg struct {
	From    int
	Type    byte
	Payload [PayloadSize]byte
}

// U32 reads the i-th little-endian uint32 from the payload (protocol
// convenience).
func (m *Msg) U32(i int) uint32 {
	return binary.LittleEndian.Uint32(m.Payload[4*i:])
}

// PutU32 writes the i-th little-endian uint32 into a payload buffer.
func PutU32(p []byte, i int, v uint32) {
	binary.LittleEndian.PutUint32(p[4*i:], v)
}

// Stats counts mailbox events.
type Stats struct {
	Sends     uint64
	BusyWaits uint64 // sender found the slot still full
	Checks    uint64 // slot inspections
	Recvs     uint64
	IPIs      uint64

	// Hardened-protocol recovery counters.
	Retransmits  uint64 // lost deposits redelivered by the timeout timer
	Renudges     uint64 // deposited-but-unconsumed mails re-notified
	CorruptDrops uint64 // frames discarded on checksum mismatch
	DupFrames    uint64 // stale duplicate redeliveries discarded
	ShortFrames  uint64 // frames discarded on impossible length
	DeadDrops    uint64 // sends discarded because the receiver crashed
}

// pendingMail is the hardened sender's retransmission buffer for the last
// mail on one pair, kept until the receiver's acknowledgement shows up.
type pendingMail struct {
	active bool
	seq    uint16
	line   [phys.CacheLine]byte
}

// hardPair is the hardened protocol's state for one pair (to,from).
type hardPair struct {
	sendSeq  uint16 // last sequence number assigned by the sender
	lastRecv uint16 // last in-order sequence consumed by the receiver
	pending  pendingMail
}

// System is the chip-wide mailbox layer.
type System struct {
	chip *scc.Chip
	mode Mode
	n    int

	// freeSig[to*n+from] fires when the receiver consumes the mail in
	// (to,from). It is made on first use (freeSignal): most pairs of a large
	// machine never exchange mail.
	freeSig []*sim.Signal
	// anyFull[to] fires on every deposit for to (poll-mode idle wakeup).
	anyFull []*sim.Signal

	// hard is the hardened protocol's per-pair state, indexed like the
	// signals and made on first hardened use (hardPairs): a machine that
	// never hardens a mail never pays for its n² records.
	hard []hardPair

	// freeRetx holds the retransmission timers no event refers to any more
	// (see armRetx).
	freeRetx *retx

	prof *profile.Profiler

	// serviceHooks, indexed by core, drain a core's own inbox while its
	// hardened send is blocked waiting for an acknowledgement. Without
	// this a pair of kernels replying to each other from their interrupt
	// handlers (where nested delivery is off) deadlocks: each waits for
	// an ack only the other can publish.
	serviceHooks []func() bool

	// mailers holds each core's free chain records (see mailer).
	mailers []*mailer

	stats Stats
}

// New creates the mailbox layer in the given mode.
func New(chip *scc.Chip, mode Mode) *System {
	n := chip.Cores()
	s := &System{
		chip:         chip,
		mode:         mode,
		n:            n,
		freeSig:      make([]*sim.Signal, n*n),
		anyFull:      make([]*sim.Signal, n),
		serviceHooks: make([]func() bool, n),
		mailers:      make([]*mailer, n),
	}
	eng := chip.Engine()
	for i := range s.anyFull {
		s.anyFull[i] = sim.NewSignal(eng)
	}
	return s
}

// freeSignal returns freeSig[p], made on first use.
func (s *System) freeSignal(p int) *sim.Signal {
	if s.freeSig[p] == nil {
		s.freeSig[p] = sim.NewSignal(s.chip.Engine())
	}
	return s.freeSig[p]
}

// hardPairs returns the hardened per-pair state, made on first use.
func (s *System) hardPairs() []hardPair {
	if s.hard == nil {
		s.hard = make([]hardPair, s.n*s.n)
	}
	return s.hard
}

// SetServiceHook installs the kernel's inbox-drain callback for one core;
// Send calls it only when hardened, while blocked (see serviceHooks).
func (s *System) SetServiceHook(core int, fn func() bool) { s.serviceHooks[core] = fn }

// SetProfiler installs the cycle-attribution profiler; nil disables it.
// Send and Check report their time as mailbox wait unless a more specific
// context (fault handling, barrier) is already active on the core.
func (s *System) SetProfiler(p *profile.Profiler) { s.prof = p }

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats { return s.stats }

// slotOff returns the offset of sender's slot in the receiver's MPB.
func slotOff(sender int) int { return sender * phys.CacheLine }

func (s *System) pair(to, from int) int { return to*s.n + from }

func (s *System) checkPair(to, from int) {
	if to < 0 || to >= s.n || from < 0 || from >= s.n {
		panic(fmt.Sprintf("mailbox: pair (%d,%d) out of range", to, from))
	}
	if to == from {
		panic("mailbox: send to self")
	}
}

// seqAfter reports whether sequence a is newer than b in 16-bit circular
// arithmetic.
func seqAfter(a, b uint16) bool { return int16(a-b) > 0 }

// frameSum is the hardened frame checksum: a 16-bit sum over type, length,
// sequence and payload — everything but the flag byte and the checksum
// field itself, so any single-bit corruption is detected.
func frameSum(line *[phys.CacheLine]byte) uint16 {
	var sum uint32
	for _, b := range line[1:6] {
		sum += uint32(b)
	}
	for _, b := range line[8:] {
		sum += uint32(b)
	}
	return uint16(sum)
}

// Send deposits a mail from core from to core to, busy-waiting while the
// slot still holds an unconsumed mail. It runs on from's goroutine. Each
// round's probe, deposit and notification run as one step chain (mailer).
func (s *System) Send(from, to int, typ byte, payload []byte) {
	s.checkPair(to, from)
	// The kernel consults its cached copy of the liveness register before
	// committing a send: mail for a crashed core would sit in a slot nobody
	// ever drains and wedge this sender's next send to it forever. The
	// charge models the (cheap) register check; the mail itself is
	// discarded. CoreCrashed is always false on machines without crash
	// faults, so the branch perturbs nothing.
	if s.chip.CoreCrashed(to) {
		s.stats.DeadDrops++
		s.chip.Core(from).Proc().Charge(s.chip.MPBAccess(from, to))
		return
	}
	if len(payload) > PayloadSize {
		panic(fmt.Sprintf("mailbox: payload %d exceeds %d bytes", len(payload), PayloadSize))
	}
	hardened := s.chip.FaultsHardened()
	m := s.mailer(from)
	*m = mailer{s: s, core: from, step: m.step, to: to, typ: typ, hardened: hardened}
	// One combined line write carries header and payload; a hardened
	// frame gets its sequence number and checksum once the probe passes.
	m.line[0], m.line[1] = 1, typ
	binary.LittleEndian.PutUint16(m.line[2:], uint16(len(payload)))
	copy(m.line[frameHeader:], payload)
	core, free := s.chip.Core(from), s.freeSignal(s.pair(to, from))
	proc := core.Proc()
	s.prof.EnterIfIdle(from, profile.MailboxWait, proc.LocalTime())
	// The probe-deposit-notify sequence must be atomic against this core's
	// own interrupt handler: if the handler ran between the deposit and the
	// IPI and itself sent to the same destination, it would block on a slot
	// whose owner can never learn about the occupying mail (its IPI is not
	// raised yet) — a deadlock a real kernel prevents exactly this way,
	// with interrupts disabled around the send path.
	prevIRQ := core.InterruptsEnabled()
	for {
		m.phase = sendProbe
		proc.Spin(m.step)
		if m.phase != sendBusy {
			break
		}
		// Busy-wait with interrupts enabled so incoming requests are still
		// serviced while we wait (deadlock freedom for cross sends).
		core.SetInterruptsEnabled(prevIRQ)
		s.stats.BusyWaits++
		if hardened {
			// The acknowledgement requires the peer to consume our mail —
			// and the peer may itself be blocked right here, sending a reply
			// from its interrupt handler (where nested delivery is off),
			// with its unacknowledged mail sitting in our slot. Drain our
			// own inbox before parking so that cycle always breaks.
			if svc := s.serviceHooks[from]; svc != nil && svc() {
				continue
			}
			// Park with a deadline: in polling mode nothing nudges a
			// blocked sender when mail lands in its slot, so the probe
			// must rerun on retransmission cadence.
			free.Deadline(proc.LocalTime() + s.retxTimeout(0))
		}
		free.Wait(proc)
	}
	core.SetInterruptsEnabled(prevIRQ)
	s.prof.Exit(from, proc.LocalTime())
	m.free, s.mailers[from] = s.mailers[from], m
}

// renotify fires a deposit's wake-ups again from engine context at time at
// (a duplicate landing, a retransmission or a renudge): fault-free, and
// charging no core time.
func (s *System) renotify(from, to int, at sim.Time) {
	s.anyFull[to].Fire(at)
	if s.mode == ModeIPI {
		s.chip.NudgeIPI(from, to)
	}
}

// armRetx schedules the hardened sender's retransmission timer for mail
// seq on pair (to,from). The timer models the sender kernel's timer
// interrupt: it runs in engine context and charges no core time. Until the
// receiver's acknowledgement shows up in the slot header it redeposits lost
// frames, doubling the timeout per attempt up to the backoff cap; it
// self-terminates once the mail is acknowledged or superseded. Once an
// intact frame is confirmed sitting in the slot the loss was on the notify
// side only: the timer re-notifies once and retires — the receiver's poll
// or rescue scan consumes the frame from there, and a timer that kept
// renudging mail the receiver never consumes (it may already be past
// caring) would keep the event queue alive forever. A retired timer's
// record goes back on the free list, its fire bound once.
func (s *System) armRetx(from, to int, seq uint16, start sim.Time) {
	r := s.freeRetx
	if r == nil {
		r = &retx{}
		r.run = r.fire
	} else {
		s.freeRetx = r.free
	}
	*r = retx{s: s, from: from, to: to, seq: seq, at: start + s.retxTimeout(0), run: r.run}
	s.chip.Engine().At(r.at, r.run)
}

// retxTimeout is the retransmission timeout after attempt backoff doublings.
func (s *System) retxTimeout(attempt int) sim.Duration {
	return s.chip.Config().Core.Clock.Cycles(RetxTimeoutCoreCycles << attempt)
}

// retx is one hardened mail's retransmission timer (see armRetx).
type retx struct {
	s        *System
	from, to int
	seq      uint16
	attempt  int      // backoff doublings so far
	fires    int      // firings so far, bounded by RetxMaxFires
	at       sim.Time // when the scheduled firing runs
	run      func()   // r.fire, bound once
	free     *retx    // the next free record
}

// fire is the timer event: one round of recovery, then the next firing
// one doubled timeout later, or retirement.
func (r *retx) fire() {
	r.fires++
	// Past RetxMaxFires the sender gives up; the watchdog reports the
	// frozen pair.
	if !r.round() || r.fires >= RetxMaxFires {
		r.free, r.s.freeRetx = r.s.freeRetx, r
		return
	}
	if r.attempt < RetxBackoffShiftCap {
		r.attempt++
	}
	r.at += r.s.retxTimeout(r.attempt)
	r.s.chip.Engine().At(r.at, r.run)
}

// round inspects the pair at the firing and redeposits or renudges as
// needed. It reports whether the timer must fire again.
func (r *retx) round() bool {
	s, from, to, seq, at := r.s, r.from, r.to, r.seq, r.at
	pend := &s.hard[s.pair(to, from)].pending
	if !pend.active || pend.seq != seq {
		return false // superseded: the sender observed the acknowledgement
	}
	if s.chip.CoreCrashed(to) {
		// The receiver crashed: retransmitting to it would keep the event
		// queue alive forever. Retire the timer and the pending mail; the
		// sender's next send to this pair starts fresh.
		pend.active = false
		s.stats.DeadDrops++
		return false
	}
	inj := s.chip.FaultInjector()
	if !s.chip.SameChip(from, to) && inj.LinkPartitioned(at) {
		// The link is partitioned: nothing crosses until it heals. Keep the
		// timer armed so a retransmission lands after the heal — retiring
		// here (even on an intact remote frame) could strand a receiver
		// whose every notification fell inside the window.
		inj.NotePartitionDrop()
		s.chip.Tracer().Emit(at, from, trace.KindFaultInject,
			uint64(faults.Link), uint64(faults.Drop))
		return true
	}
	off := slotOff(from)
	var line [phys.CacheLine]byte
	s.chip.MPB().Read(to, off, line[:])
	slotSeq := binary.LittleEndian.Uint16(line[4:])
	if line[0] == 0 {
		if !seqAfter(seq, slotSeq) {
			pend.active = false // acknowledged
			return false
		}
		// The deposit was lost or discarded: redeposit — itself subject to
		// injection, so a retransmission can be lost or corrupted again and
		// the next round recovers it.
		s.stats.Retransmits++
		s.chip.Tracer().Emit(at, from, trace.KindRetransmit, uint64(to), uint64(seq))
		if inj.Drop(faults.Mail) {
			s.chip.Tracer().Emit(at, from, trace.KindFaultInject,
				uint64(faults.Mail), uint64(faults.Drop))
			return true
		}
		wire := pend.line
		if inj.Corrupt(faults.Mail, wire[1:]) {
			s.chip.Tracer().Emit(at, from, trace.KindFaultInject,
				uint64(faults.Mail), uint64(faults.Corrupt))
		}
		s.chip.MPB().Write(to, off, wire[:])
		s.renotify(from, to, at)
		return true
	}
	if slotSeq == seq && binary.LittleEndian.Uint16(line[6:]) == frameSum(&line) {
		// The frame is in the slot, intact: only the notification was lost.
		// Renudge once and retire — delivery is now the receiver's scan
		// loop's problem, and the nudge is fault-free.
		s.stats.Renudges++
		s.chip.Tracer().Emit(at, from, trace.KindRetransmit, uint64(to), uint64(seq))
		s.renotify(from, to, at)
		return false
	}
	// A corrupted copy of this mail or a stale duplicate occupies the slot;
	// the receiver discards it and this mail's fate shows up next round.
	return true
}

// Check inspects one receive slot, consuming and returning the mail if
// present: one-slot ScanTake. A malformed frame reads as no mail; it is
// counted (ShortFrames, CorruptDrops) and dropped.
func (s *System) Check(receiver, sender int) (Msg, bool) {
	_, msg, ok := s.receive(receiver, nil, sender, 0, -1, scanEnter)
	return msg, ok
}

// ScanTake probes the receiver's slots for senders[from:], in order and
// skipping the core skip, at the paper's ~100 cycles a probe, and consumes
// the mail in the first full slot, as one step chain the engine runs in
// place. It returns that slot's index, or len(senders) when none holds
// mail; malformed frames read as no mail.
func (s *System) ScanTake(receiver int, senders []int, from, skip int) (int, Msg, bool) {
	return s.receive(receiver, senders, -1, from, skip, scanEnter)
}

// Take consumes the mail the caller's own probe has just found in the
// receiver's slot for sender: line read, frame checks, flag clear, the
// sender's wake-up. A malformed frame reads as no mail.
func (s *System) Take(receiver, sender int) (Msg, bool) {
	_, msg, ok := s.receive(receiver, nil, sender, 0, -1, takeRead)
	return msg, ok
}

// receive runs the receiver's chain from phase over senders, or the one
// slot sender if it is not negative.
func (s *System) receive(receiver int, senders []int, sender, from, skip int, phase chainPhase) (int, Msg, bool) {
	m := s.mailer(receiver)
	*m = mailer{s: s, core: receiver, step: m.step, senders: senders, skip: skip, i: from, phase: phase}
	if sender >= 0 {
		m.one[0] = sender
		m.senders = m.one[:]
	}
	s.chip.Core(receiver).Proc().Spin(m.step)
	var msg Msg
	if m.ok {
		n := int(binary.LittleEndian.Uint16(m.line[2:]))
		msg = Msg{From: m.senders[m.i], Type: m.line[1]}
		copy(msg.Payload[:], m.line[frameHeader:frameHeader+n])
	}
	m.free, s.mailers[receiver] = s.mailers[receiver], m
	return m.i, msg, m.ok
}

// mailer takes a chain record for an operation on core off its free list;
// the operation puts it back when done. A handler may run an operation
// inside another, so each nesting level gets a record of its own.
func (s *System) mailer(core int) *mailer {
	m := s.mailers[core]
	if m == nil {
		m = &mailer{}
		m.step = m.next
	}
	s.mailers[core] = m.free
	return m
}

// WaitAnySignal returns the signal fired whenever any mail is deposited for
// the receiver — the poll-mode idle loop parks on it.
func (s *System) WaitAnySignal(receiver int) *sim.Signal { return s.anyFull[receiver] }

// NoteCrashed wakes everyone the crashed core could be blocking: senders
// parked on its receive slots (which it will never drain) and waiters
// parked on mail or acknowledgements from it. Each woken party re-checks
// its condition against the liveness register and gives up or recovers.
// Called from engine context by the kernel's crash event.
func (s *System) NoteCrashed(id int, at sim.Time) {
	for other := 0; other < s.n; other++ {
		if other == id {
			continue
		}
		s.freeSignal(s.pair(id, other)).Fire(at) // senders blocked sending to id
		s.freeSignal(s.pair(other, id)).Fire(at) // (symmetry; id's own sends are moot)
		s.anyFull[other].Fire(at)                // kernel WaitFor scans
	}
}

// DumpInFlight writes the protocol's in-flight state — pending unacked
// mails and occupied receive slots — as part of the watchdog's diagnostic
// dump. Functional reads only; charges no simulated time.
func (s *System) DumpInFlight(w io.Writer) {
	st := s.stats
	fmt.Fprintf(w, "mailbox: %d sends %d recvs %d busy-waits | recovery: %d retransmits %d renudges %d corrupt %d dup %d short %d dead\n",
		st.Sends, st.Recvs, st.BusyWaits, st.Retransmits, st.Renudges,
		st.CorruptDrops, st.DupFrames, st.ShortFrames, st.DeadDrops)
	mpb := s.chip.MPB()
	for to := 0; to < s.n; to++ {
		for from := 0; from < s.n; from++ {
			if to == from {
				continue
			}
			var h hardPair // a never-hardened machine reads as zero
			if s.hard != nil {
				h = s.hard[s.pair(to, from)]
			}
			var hdr [8]byte
			mpb.Read(to, slotOff(from), hdr[:])
			if !h.pending.active && hdr[0] == 0 {
				continue
			}
			fmt.Fprintf(w, "  pair %d->%d: slot flag=%d type=%d seq=%d | pending active=%v seq=%d | lastRecv=%d\n",
				from, to, hdr[0], hdr[1], binary.LittleEndian.Uint16(hdr[4:]),
				h.pending.active, h.pending.seq, h.lastRecv)
		}
	}
}
