package mailbox

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/phys"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// --- The step chains against the goroutine code they replace ---
//
// Send, Check, ScanTake and Take run as sim.Proc.Spin step chains. Below,
// the same operations are written out as the goroutine sequences they are
// defined as: every charged access a literal Sync, Advance, Sync, the IPI
// raise likewise. A scenario runs once with each form and must produce the
// same trace, end time, mailbox and fault counters, and engine counts, with
// the engine's three ways of resuming a proc folded into one.

// access is a charged MPB access from core to owner's buffer, written out.
func access(ch *scc.Chip, core, owner int) {
	lat := ch.MPBAccess(core, owner)
	c := ch.Core(core)
	c.Sync()
	c.Proc().Advance(lat)
	c.Sync()
}

// literalSend is Send as goroutine code.
func literalSend(s *System, from, to int, typ byte, payload []byte) {
	s.checkPair(to, from)
	if s.chip.CoreCrashed(to) {
		s.stats.DeadDrops++
		access(s.chip, from, to)
		return
	}
	hardened := s.chip.FaultsHardened()
	core := s.chip.Core(from)
	off := slotOff(from)
	p := s.pair(to, from)
	s.prof.EnterIfIdle(from, profile.MailboxWait, core.Now())
	defer func() { s.prof.Exit(from, core.Now()) }()
	prevIRQ := core.InterruptsEnabled()
	defer core.SetInterruptsEnabled(prevIRQ)
	for {
		if s.chip.CoreCrashed(to) {
			s.stats.DeadDrops++
			return
		}
		core.SetInterruptsEnabled(false)
		var slot [8]byte
		access(s.chip, from, to)
		s.chip.MPB().Read(to, off, slot[:])
		if slot[0] == 0 && !(hardened && s.pending[p].active && seqAfter(s.pending[p].seq, binary.LittleEndian.Uint16(slot[4:]))) {
			break
		}
		core.SetInterruptsEnabled(prevIRQ)
		s.stats.BusyWaits++
		if hardened {
			if svc := s.serviceHooks[from]; svc != nil && svc() {
				continue
			}
			s.freeSignal(p).Deadline(core.Now() + s.retxTimeout(0))
		}
		s.freeSignal(p).Wait(core.Proc())
	}
	var line [phys.CacheLine]byte
	line[0], line[1] = 1, typ
	binary.LittleEndian.PutUint16(line[2:], uint16(len(payload)))
	copy(line[frameHeader:], payload)
	if hardened {
		s.sendSeq[p]++
		binary.LittleEndian.PutUint16(line[4:], s.sendSeq[p])
		binary.LittleEndian.PutUint16(line[6:], frameSum(&line))
		s.pending[p] = pendingMail{active: true, seq: s.sendSeq[p], line: line}
	}
	literalDeposit(s, from, to, off, line)
	s.stats.Sends++
	s.chip.Tracer().Emit(core.Now(), from, trace.KindMailSend, uint64(to), uint64(typ))
	now := core.Now()
	s.anyFull[to].Fire(now)
	if s.mode == ModeIPI {
		s.stats.IPIs++
		lat := s.chip.IPICharge(from, to)
		core.Sync()
		core.Proc().Advance(lat)
		core.Sync()
		s.chip.IPIEffect(from, to)
	}
	if hardened {
		s.armRetx(from, to, s.pending[p].seq, now)
	}
}

// literalDeposit is Send's deposit through the fault injector, written out.
func literalDeposit(s *System, from, to, off int, wire [phys.CacheLine]byte) {
	inj, core, tr := s.chip.FaultInjector(), s.chip.Core(from), s.chip.Tracer()
	if !s.chip.SameChip(from, to) && inj.LinkPartitioned(core.Now()) {
		inj.NotePartitionDrop()
		tr.Emit(core.Now(), from, trace.KindFaultInject, uint64(faults.Link), uint64(faults.Drop))
		access(s.chip, from, to)
		return
	}
	if cyc := inj.DelayCycles(faults.Global, faults.Mail); cyc != 0 {
		tr.Emit(core.Now(), from, trace.KindFaultInject, uint64(faults.Mail), uint64(faults.Delay))
		core.Cycles(cyc)
	}
	if inj.Drop(faults.Mail) {
		tr.Emit(core.Now(), from, trace.KindFaultInject, uint64(faults.Mail), uint64(faults.Drop))
		access(s.chip, from, to)
		return
	}
	if inj.Corrupt(faults.Mail, wire[1:]) {
		tr.Emit(core.Now(), from, trace.KindFaultInject, uint64(faults.Mail), uint64(faults.Corrupt))
	}
	access(s.chip, from, to)
	s.chip.MPB().Write(to, off, wire[:])
	if inj.Dup(faults.Mail) {
		now := core.Now()
		tr.Emit(now, from, trace.KindFaultInject, uint64(faults.Mail), uint64(faults.Dup))
		at := now + s.chip.Config().Core.Clock.Cycles(inj.DupDelayCycles())
		s.chip.Engine().At(at, func() {
			if !s.chip.SameChip(from, to) && inj.LinkPartitioned(at) {
				inj.NotePartitionDrop()
				return
			}
			if s.chip.MPB().Byte(to, off) != 0 {
				return
			}
			s.chip.MPB().Write(to, off, wire[:])
			s.renotify(from, to, at)
		})
	}
}

// literalProbe is one slot check, written out; it reports a full slot,
// leaving the profiler context for the take to exit.
func literalProbe(s *System, receiver, sender int) bool {
	s.checkPair(receiver, sender)
	c := s.chip.Core(receiver)
	s.prof.EnterIfIdle(receiver, profile.MailboxWait, c.Now())
	c.Sync()
	c.Proc().Advance(s.chip.MailCheckLatency())
	s.stats.Checks++
	if s.chip.MPB().Byte(receiver, slotOff(sender)) != 0 {
		return true
	}
	s.prof.Exit(receiver, c.Now())
	return false
}

// literalTake is Take as goroutine code.
func literalTake(s *System, receiver, sender int) (Msg, bool) {
	core := s.chip.Core(receiver)
	defer func() { s.prof.Exit(receiver, core.Now()) }()
	off := slotOff(sender)
	var line [phys.CacheLine]byte
	access(s.chip, receiver, receiver)
	s.chip.MPB().Read(receiver, off, line[:])
	if line[0] == 0 {
		return Msg{}, false
	}
	hardened := s.chip.FaultsHardened()
	p := s.pair(receiver, sender)
	n := int(binary.LittleEndian.Uint16(line[2:]))
	seq := binary.LittleEndian.Uint16(line[4:])
	discard, fresh := false, false
	switch {
	case n > PayloadSize:
		s.stats.ShortFrames++
		discard = true
	case hardened && binary.LittleEndian.Uint16(line[6:]) != frameSum(&line):
		s.stats.CorruptDrops++
		discard = true
	case hardened && !seqAfter(seq, s.lastRecv[p]):
		s.stats.DupFrames++
	default:
		fresh = true
		if hardened {
			s.lastRecv[p] = seq
		}
	}
	var ack [8]byte
	if hardened {
		binary.LittleEndian.PutUint16(ack[4:], s.lastRecv[p])
	}
	access(s.chip, receiver, receiver)
	s.chip.MPB().Write(receiver, off, ack[:])
	if discard && hardened {
		return Msg{}, false
	}
	var msg Msg
	if fresh {
		s.stats.Recvs++
		s.chip.Tracer().Emit(core.Now(), receiver, trace.KindMailRecv, uint64(sender), uint64(line[1]))
		msg = Msg{From: sender, Type: line[1]}
		copy(msg.Payload[:], line[frameHeader:frameHeader+n])
	}
	s.freeSignal(p).Fire(core.Now())
	return msg, fresh
}

// mailOps is one form of the operations a scenario runs.
type mailOps struct {
	send    func(s *System, from, to int, typ byte, payload []byte)
	receive func(s *System, receiver, sender int) (Msg, bool)
	// next consumes the first mail in senders[from:], skipping skip, and
	// returns its index (len(senders) when there is none).
	next func(s *System, receiver int, senders []int, from, skip int) (int, Msg, bool)
}

// chainOps runs the chains. Odd receivers probe with the written-out
// loop and take with the chain, as the kernel's scan oracle does.
var chainOps = mailOps{
	send:    (*System).Send,
	receive: (*System).Check,
	next: func(s *System, r int, senders []int, from, skip int) (int, Msg, bool) {
		if r%2 == 0 {
			return s.ScanTake(r, senders, from, skip)
		}
		return literalNext(s, r, senders, from, skip, (*System).Take)
	},
}

var literalOps = mailOps{
	send: literalSend,
	receive: func(s *System, r, sender int) (Msg, bool) {
		if !literalProbe(s, r, sender) {
			return Msg{}, false
		}
		return literalTake(s, r, sender)
	},
	next: func(s *System, r int, senders []int, from, skip int) (int, Msg, bool) {
		return literalNext(s, r, senders, from, skip, literalTake)
	},
}

// literalNext probes senders[from:], skipping skip, with the written-out
// loop and consumes the first full slot with take.
func literalNext(s *System, r int, senders []int, from, skip int, take func(s *System, receiver, sender int) (Msg, bool)) (int, Msg, bool) {
	for i := from; i < len(senders); i++ {
		if senders[i] != skip && literalProbe(s, r, senders[i]) {
			msg, ok := take(s, r, senders[i])
			return i, msg, ok
		}
	}
	return len(senders), Msg{}, false
}

// chainOutcome is everything a scenario may move.
type chainOutcome struct {
	End     sim.Time
	Events  []trace.Event
	Mail    Stats
	Faults  faults.Stats
	Profile *profile.Report
	Got     [][]uint32 // per core, the payload word of every mail handled
	Engine  sim.Stats  // ProcSwitches counts every resume of a proc
	raw     sim.Stats
}

// runChainScenario runs six cores that request from each other round after
// round, like kernels: requests are answered from the IPI handler (with a
// Check per raising core), from a 15 µs timer tick's drain or from the
// main loop's (the next op); replies are sent from handlers while the outer
// operation may be mid-chain or blocked, and a hardened blocked sender
// drains its inbox. A non-nil spec runs the hardened protocols under it.
func runChainScenario(t *testing.T, ops mailOps, mode Mode, spec *faults.Spec) chainOutcome {
	t.Helper()
	eng, ch := newChip(t)
	if spec != nil {
		ch.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 5, Spec: *spec}))
		ch.Harden()
	}
	mb := New(ch, mode)
	mb.SetProfiler(profile.New(ch.Cores(), profile.Config{SpanCapacity: -1}))
	var o chainOutcome
	kinds := make([]trace.Kind, 0, 64)
	for k := trace.Kind(0); !strings.HasPrefix(k.String(), "kind("); k++ {
		kinds = append(kinds, k)
	}
	ch.Tracer().Subscribe(func(e trace.Event) { o.Events = append(o.Events, e) }, kinds...)

	const req, ack = 1, 2
	const rounds = 12
	members := []int{0, 9, 17, 23, 30, 47}
	n := len(members)
	o.Got = make([][]uint32, n)
	acks := make([]int, n)
	done := 0
	for idx, id := range members {
		idx, id := idx, id
		handle := func(c *cpu.Core, m Msg) {
			o.Got[idx] = append(o.Got[idx], m.U32(0))
			if m.Type == ack {
				acks[idx]++
				return
			}
			c.Cycles(uint64(250 + 41*idx))
			var payload [PayloadSize]byte
			PutU32(payload[:], 0, m.U32(0)+1)
			ops.send(mb, id, m.From, ack, payload[:4+4*(idx%3)])
		}
		servicing := false
		drain := func(c *cpu.Core) bool {
			progress := false
			for i := 0; ; i++ {
				var msg Msg
				var ok bool
				if i, msg, ok = ops.next(mb, id, members, i, id); i == n {
					return progress
				}
				if ok {
					handle(c, msg)
					progress = true
				}
			}
		}
		mb.SetServiceHook(id, func() bool {
			if servicing {
				return false
			}
			servicing = true
			defer func() { servicing = false }()
			return drain(ch.Core(id))
		})
		ch.Boot(id, func(c *cpu.Core) {
			var claimed []int
			c.SetIRQHandler(func(c *cpu.Core, irq cpu.IRQ) {
				if irq == cpu.IRQTimer {
					drain(c)
					return
				}
				claimed = ch.GIC().ClaimAll(id, claimed[:0])
				for _, from := range claimed {
					if m, ok := ops.receive(mb, id, from); ok {
						handle(c, m)
					}
				}
			})
			sig := mb.WaitAnySignal(id)
			// wait serves the inbox until cond holds, parking between
			// drains (hardened, with a rescue deadline).
			wait := func(cond func() bool) {
				for !cond() {
					seq := sig.Seq()
					if drain(c) {
						continue
					}
					sig.Deadline(c.Now() + sim.Microseconds(25))
					sig.WaitSeq(c.Proc(), seq)
				}
			}
			// Two requests a round to the next core, so the second may find
			// the slot still full; acks go to the previous core, on a pair
			// of their own.
			next := members[(idx+1)%n]
			for r := 0; r < rounds; r++ {
				for k := 0; k < 2; k++ {
					var payload [PayloadSize]byte
					PutU32(payload[:], 0, uint32(1000*idx+10*r+k))
					ops.send(mb, id, next, req, payload[:4+4*((r+k)%5)])
				}
				wait(func() bool { return acks[idx] == 2*(r+1) })
				c.Cycles(uint64(400 + 97*((idx*7+r)%5)))
			}
			done++
			wait(func() bool { return done == n })
		})
	}
	// A timer tick drains every inbox from the interrupt handler, inside
	// whatever the core is doing, as a polling kernel's tick does.
	var tick func()
	tick = func() {
		for _, id := range members {
			ch.Core(id).PostInterrupt(cpu.IRQTimer)
		}
		if done < n {
			eng.After(sim.Microseconds(15), tick)
		}
	}
	eng.At(sim.Microseconds(15), tick)
	o.End = eng.RunUntil(sim.Microseconds(50000))
	eng.Shutdown()
	o.Mail = mb.Stats()
	o.Faults = ch.FaultInjector().Stats()
	o.Profile = mb.prof.Report()
	st := eng.Stats()
	o.Engine, o.raw = st, st
	o.Engine.ProcSwitches += st.SelfWakes + st.InPlaceSteps
	o.Engine.SelfWakes, o.Engine.InPlaceSteps = 0, 0
	for i := range members {
		if acks[i] != 2*rounds {
			t.Fatalf("core %d got %d of %d acks", members[i], acks[i], 2*rounds)
		}
	}
	return o
}

// TestChainsMatchGoroutineCode: Send, Check, ScanTake and Take as step
// chains produce what the goroutine sequences produce, on a plain machine
// in both modes and under a hardened schedule that drops, duplicates,
// corrupts and delays mail, drops IPIs and stalls cores; only who runs the
// steps differs.
func TestChainsMatchGoroutineCode(t *testing.T) {
	storm := &faults.Spec{StallPermille: 40, StallCycles: 200}
	storm.Routes[faults.Mail] = faults.RouteSpec{DropPermille: 100, DupPermille: 60,
		CorruptPermille: 60, DelayPermille: 100, DelayCycles: 700}
	storm.Routes[faults.IPI] = faults.RouteSpec{DropPermille: 200}
	for _, tc := range []struct {
		name string
		mode Mode
		spec *faults.Spec
	}{
		{"plain polling", ModePolling, nil},
		{"plain ipi", ModeIPI, nil},
		{"hardened ipi", ModeIPI, storm},
		{"hardened polling", ModePolling, storm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			literal := runChainScenario(t, literalOps, tc.mode, tc.spec)
			chain := runChainScenario(t, chainOps, tc.mode, tc.spec)
			if chain.raw.InPlaceSteps == 0 || chain.raw.ProcSwitches >= literal.raw.ProcSwitches {
				t.Fatalf("no chain step ran in place:\nliteral %+v\nchain   %+v", literal.raw, chain.raw)
			}
			literal.raw, chain.raw = sim.Stats{}, sim.Stats{}
			if !reflect.DeepEqual(literal, chain) {
				t.Fatalf("the chains diverged from the goroutine code:\nliteral %+v %+v %+v\nchain   %+v %+v %+v",
					literal.End, literal.Mail, literal.Engine, chain.End, chain.Mail, chain.Engine)
			}
			if tc.spec != nil {
				f := chain.Faults
				if f.Drops[faults.Mail] == 0 || f.Dups[faults.Mail] == 0 || f.Corruptions[faults.Mail] == 0 ||
					f.Delays[faults.Mail] == 0 || f.Stalls == 0 || tc.mode == ModeIPI && f.Drops[faults.IPI] == 0 {
					t.Fatalf("the schedule missed a fault kind: %+v", f)
				}
				if chain.Mail.BusyWaits == 0 {
					t.Fatal("no send found its slot busy")
				}
			}
		})
	}
}
