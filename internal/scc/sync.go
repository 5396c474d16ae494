package scc

import (
	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/mesh"
	"metalsvm/internal/phys"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// This file holds the chip's synchronous primitives: operations whose
// effects must be globally ordered (mailbox flags, test-and-set, ownership
// metadata, IPIs). Each one syncs the issuing core to global time, charges
// the transaction latency, syncs again (sim.Proc.Charge), and only then
// applies the functional effect — so the effect lands exactly at its
// completion time and every other synced observer sees a consistent order.

func (ch *Chip) syncCharge(core int, lat sim.Duration) *cpu.Core {
	c := ch.cores[core]
	c.Proc().Charge(ch.stall(core, lat))
	return c
}

// stall adds a fault-injected core stall to a synchronous transaction's
// latency (zero without an injector) and traces the injection.
func (ch *Chip) stall(core int, lat sim.Duration) sim.Duration {
	if cyc := ch.faults.StallCycles(core); cyc != 0 {
		ch.traceFault(ch.cores[core].Now(), core, faults.NumRoutes, faults.Stall)
		lat += ch.coreClock().Cycles(cyc)
	}
	return lat
}

// traceFault traces a fault injected into core's transaction at time at.
func (ch *Chip) traceFault(at sim.Time, core int, r faults.Route, k faults.Kind) {
	ch.tracer.Emit(at, core, trace.KindFaultInject, uint64(r), uint64(k))
}

// injectDelay draws a fault-injected mesh delay for the route (zero without
// an injector) and traces the injection.
func (ch *Chip) injectDelay(core int, r faults.Route) sim.Duration {
	cyc := ch.faults.DelayCycles(core, r)
	if cyc == 0 {
		return 0
	}
	ch.traceFault(ch.cores[core].Now(), core, r, faults.Delay)
	return ch.coreClock().Cycles(cyc)
}

// HopsCores returns the mesh hop count between two global core ids and
// whether the path crosses the inter-chip link: same-chip transactions
// take the direct XY route; crossings travel the local mesh to the
// system-interface port, the link, and the remote mesh from that port.
// On one chip the global ids are the mesh's own, so the chip arithmetic
// (two divisions and two modulos) is skipped.
func (ch *Chip) HopsCores(a, b int) (hops int, cross bool) {
	if ch.chips == 1 {
		return ch.mesh.HopsCores(a, b), false
	}
	if ch.SameChip(a, b) {
		return ch.mesh.HopsCores(ch.localCore(a), ch.localCore(b)), false
	}
	return ch.gicHops(a) + ch.gicHops(b), true
}

// mpbLatency is an MPB access from core to owner's buffer: fixed core-side
// cost plus a mesh round trip (zero hops when owner shares the tile; the
// local fixed cost still applies, as measured on the SCC). A remote-chip
// owner adds a link round trip carrying one line.
func (ch *Chip) mpbLatency(core, owner int) sim.Duration {
	hops, cross := ch.HopsCores(core, owner)
	ch.meshStats.MPBAccesses++
	ch.countHops(hops)
	lat := ch.coreClock().Cycles(ch.cfg.Lat.MPBCoreCycles) +
		ch.mesh.RoundTrip(hops) +
		ch.injectDelay(core, faults.MPB)
	if cross {
		lat += ch.link.RoundTrip(phys.CacheLine) + ch.linkCross(core)
	}
	return lat
}

// MPBAccess is the charge of one MPB access from core to owner's buffer,
// with its accounting and fault draws, for a caller that syncs it in
// (sim.Proc.Charge, or a step chain's sim.Charge) and then applies the
// effect through MPB(), or none: a deposit the mesh lost.
func (ch *Chip) MPBAccess(core, owner int) sim.Duration {
	return ch.stall(core, ch.mpbLatency(core, owner))
}

// MPBRead synchronously reads from owner's MPB on behalf of core.
func (ch *Chip) MPBRead(core, owner, off int, dst []byte) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	ch.mpb.Read(owner, off, dst)
}

// MPBWrite synchronously writes to owner's MPB on behalf of core.
func (ch *Chip) MPBWrite(core, owner, off int, src []byte) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	ch.mpb.Write(owner, off, src)
}

// MPBRead16 reads a 16-bit word from owner's MPB.
func (ch *Chip) MPBRead16(core, owner, off int) uint16 {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	return ch.mpb.Read16(owner, off)
}

// MPBWrite16 writes a 16-bit word to owner's MPB.
func (ch *Chip) MPBWrite16(core, owner, off int, v uint16) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	ch.mpb.Write16(owner, off, v)
}

func (ch *Chip) tasLatency(core, reg int) sim.Duration {
	hops, cross := ch.HopsCores(core, reg)
	ch.meshStats.TASAccesses++
	ch.countHops(hops)
	lat := ch.coreClock().Cycles(ch.cfg.Lat.TASCoreCycles) +
		ch.mesh.RoundTrip(hops)
	if cross {
		lat += ch.link.RoundTrip(8) + ch.linkCross(core)
	}
	return lat
}

// TASLock attempts the test-and-set register reg on behalf of core,
// reporting whether the lock was acquired. A fault-injected drop loses the
// request in the mesh: the core pays the round trip but the register is
// untouched and the attempt reads as contended, so the caller's existing
// retry loop recovers naturally.
func (ch *Chip) TASLock(core, reg int) bool {
	ch.syncCharge(core, ch.tasLatency(core, reg))
	return ch.tasAttempt(core, reg)
}

// tasAttempt is a test-and-set probe's effect, applied once its charge has
// been synced in: a fault-injected drop, or the register's test-and-set.
func (ch *Chip) tasAttempt(core, reg int) bool {
	now := ch.cores[core].Now()
	if ch.faults.Drop(faults.TAS) {
		ch.traceFault(now, core, faults.TAS, faults.Drop)
		return false
	}
	won := ch.tas.TestAndSet(reg)
	if won {
		ch.tracer.Emit(now, core, trace.KindTASAcquire, uint64(reg), 0)
	}
	return won
}

// TASSpin acquires the test-and-set register reg on behalf of core,
// retrying after every lost attempt: a constant 100-cycle backoff in plain
// runs and, under hardened fault injection, an exponential one (100 <<
// attempt, capped at 3 200 cycles) so a burst of dropped requests cannot
// congest the register's mesh path. It returns how many hardened backoffs
// it took. Each attempt is TASLock's; the loop runs as a sim.Proc.Spin, so
// the engine retries in place instead of switching to the core's goroutine.
func (ch *Chip) TASSpin(core, reg int) (backoffs uint64) {
	s := ch.spinners[core]
	if s == nil {
		s = &tasSpinner{ch: ch, core: core}
		s.step = s.next
		ch.spinners[core] = s
	}
	outer := *s // an interrupt handler may spin on this core inside this spin
	s.reg, s.charged, s.charge, s.attempt, s.backoffs = reg, false, sim.Charge{}, 0, 0
	ch.cores[core].Proc().Spin(s.step)
	backoffs = s.backoffs
	*s = outer
	return backoffs
}

// tasSpinner is one core's TASSpin loop, reused from spin to spin, with its
// step bound once so a spin allocates nothing.
type tasSpinner struct {
	ch        *Chip
	core, reg int
	charged   bool       // the attempt's charge has begun: test-and-set next
	charge    sim.Charge // the attempt in flight
	attempt   uint       // hardened backoff exponent
	backoffs  uint64
	step      func() (sim.Duration, bool, bool) // next, bound once
}

// next is one step of TASSpin: together they are TASLock's charge and
// test-and-set, then on a loss the backoff.
func (s *tasSpinner) next() (d sim.Duration, sync, done bool) {
	ch := s.ch
	if d, ok := s.charge.Transit(); ok {
		return d, true, false
	}
	if !s.charged {
		s.charged = true
		return s.charge.Begin(ch.stall(s.core, ch.tasLatency(s.core, s.reg)))
	}
	s.charged = false
	if ch.tasAttempt(s.core, s.reg) {
		return 0, false, true
	}
	backoff := uint64(100)
	if ch.harden {
		backoff <<= min(s.attempt, 5)
		s.attempt++
		s.backoffs++
	}
	return ch.coreClock().Cycles(backoff), false, false
}

// TASUnlock releases the test-and-set register. A fault-injected drop loses
// the clear: unhardened, the register silently stays set (a stuck lock the
// watchdog will eventually report); hardened, the releaser re-issues the
// clear until it lands — safe, because the bit never went to zero, so no
// other core can have acquired the lock in between.
func (ch *Chip) TASUnlock(core, reg int) {
	for {
		c := ch.syncCharge(core, ch.tasLatency(core, reg))
		if !ch.faults.Drop(faults.TAS) {
			ch.tas.Clear(reg)
			ch.tracer.Emit(c.Now(), core, trace.KindTASRelease, uint64(reg), 0)
			return
		}
		ch.traceFault(c.Now(), core, faults.TAS, faults.Drop)
		if !ch.harden {
			return
		}
	}
}

// PhysRead32 synchronously reads an uncached 32-bit word (the SVM metadata
// — ownership vector — lives in uncached shared memory).
func (ch *Chip) PhysRead32(core int, paddr uint32) uint32 {
	ch.syncCharge(core, ch.ddrReadLatency(core, paddr))
	return ch.mem.Read32(paddr)
}

// PhysWrite32 synchronously writes an uncached 32-bit word.
func (ch *Chip) PhysWrite32(core int, paddr uint32, v uint32) {
	ch.syncCharge(core, ch.ddrReadLatency(core, paddr))
	ch.mem.Write32(paddr, v)
}

// ZeroSharedFrame zeroes one shared frame through core's write path with
// the write-combine buffer: the cost of 4 KiB of combined line writes. Used
// by first-touch allocation.
func (ch *Chip) ZeroSharedFrame(core int, paddr uint32) {
	c := ch.cores[core]
	frame := ch.layout.FrameSize()
	lines := frame / 32
	var total sim.Duration
	for i := uint32(0); i < lines; i++ {
		total += ch.ddrLineWriteLatency(core, paddr+i*32)
	}
	c.Proc().Advance(total)
	ch.mem.ZeroFrame(paddr / frame)
}

// FrameCopyLatency returns the cost of copying one frame between two
// physical locations through a core's uncached path: a line read plus a
// posted line write per cache line (used by next-touch page migration).
func (ch *Chip) FrameCopyLatency(core int, src, dst uint32) sim.Duration {
	lines := ch.layout.FrameSize() / 32
	var total sim.Duration
	for i := uint32(0); i < lines; i++ {
		total += ch.ddrReadLatency(core, src+i*32) + ch.ddrLineWriteLatency(core, dst+i*32)
	}
	return total
}

// MailCheckLatency is the fixed cost of inspecting one mailbox slot (about
// 100 core cycles on the SCC, per the paper).
func (ch *Chip) MailCheckLatency() sim.Duration {
	return ch.coreClock().Cycles(ch.cfg.Lat.MailCheckCycles)
}

// IPICharge starts an inter-processor interrupt through the GIC: the trace
// event, the mesh accounting, and the sender's charge it returns (the
// register write and the trip to the system interface). Once the sender
// has synced that in, IPIEffect delivers the interrupt asynchronously.
func (ch *Chip) IPICharge(from, to int) sim.Duration {
	ch.tracer.Emit(ch.cores[from].Now(), from, trace.KindIPI, uint64(to), 0)
	ch.meshStats.IPIs++
	ch.countHops(ch.gicHops(from) + ch.gicHops(to))
	return ch.coreClock().Cycles(ch.cfg.Lat.IPIRaiseCoreCycles) +
		ch.mesh.OneWay(ch.gicHops(from))
}

// IPIEffect is the second half of the interrupt IPICharge starts: the fault
// draws on its way to the target's GIC and, unless it is lost, its
// delivery.
func (ch *Chip) IPIEffect(from, to int) {
	now := ch.cores[from].Now()
	if ch.faults.Drop(faults.IPI) {
		// The interrupt packet vanished between the system interface and the
		// target: the sender already paid the raise and learns nothing.
		ch.traceFault(now, from, faults.IPI, faults.Drop)
		return
	}
	deliver := ch.cfg.Mesh.Clock.Cycles(ch.cfg.Lat.GICCycles) +
		ch.mesh.OneWay(ch.gicHops(to))
	if cyc := ch.faults.DelayCycles(faults.Global, faults.IPI); cyc != 0 {
		ch.traceFault(now, from, faults.IPI, faults.Delay)
		deliver += ch.coreClock().Cycles(cyc)
	}
	if !ch.SameChip(from, to) {
		// The interrupt crosses to the target chip's GIC over the link; it
		// can be lost or delayed there independently of the IPI route.
		if ch.faults.LinkPartitioned(now) {
			ch.faults.NotePartitionDrop()
			ch.traceFault(now, from, faults.Link, faults.Drop)
			return
		}
		if ch.faults.Drop(faults.Link) {
			ch.traceFault(now, from, faults.Link, faults.Drop)
			return
		}
		ch.meshStats.LinkCrossings++
		deliver += ch.link.OneWay(8)
		if cyc := ch.faults.DelayCycles(faults.Global, faults.Link); cyc != 0 {
			ch.traceFault(now, from, faults.Link, faults.Delay)
			deliver += ch.coreClock().Cycles(cyc)
		}
	}
	ch.deliverIPI(from, to, deliver)
}

// NudgeIPI re-delivers the interrupt half of an IPI from engine context —
// the hardened mailbox's retransmission timer uses it to re-notify a
// receiver whose original interrupt was dropped. It models the kernel's
// timer-driven recovery path, so it charges no core time and is itself
// fault-free.
func (ch *Chip) NudgeIPI(from, to int) {
	if !ch.SameChip(from, to) && ch.faults.LinkPartitioned(ch.eng.Now()) {
		// A cross-chip re-notify during a link partition is lost like any
		// other link crossing; the retransmission timer stays armed and
		// re-nudges after the heal.
		ch.faults.NotePartitionDrop()
		return
	}
	ch.meshStats.IPIs++
	ch.countHops(ch.gicHops(from) + ch.gicHops(to))
	deliver := ch.cfg.Mesh.Clock.Cycles(ch.cfg.Lat.GICCycles) +
		ch.mesh.OneWay(ch.gicHops(to))
	if !ch.SameChip(from, to) {
		ch.meshStats.LinkCrossings++
		deliver += ch.link.OneWay(8)
	}
	ch.deliverIPI(from, to, deliver)
}

// ipiDelivery is a scheduled IPI arrival at the target's GIC. Records are
// recycled through Chip.ipiFree, so an IPI schedules without allocating.
type ipiDelivery struct {
	ch       *Chip
	from, to int
	run      func() // d.arrive, bound once per record
}

// deliverIPI schedules the interrupt from core from to land at core to
// after d.
func (ch *Chip) deliverIPI(from, to int, d sim.Duration) {
	var rec *ipiDelivery
	if n := len(ch.ipiFree); n > 0 {
		rec = ch.ipiFree[n-1]
		ch.ipiFree = ch.ipiFree[:n-1]
	} else {
		rec = &ipiDelivery{ch: ch}
		rec.run = rec.arrive
	}
	rec.from, rec.to = from, to
	ch.eng.After(d, rec.run)
}

// arrive raises the IPI and posts it to the target. Its fields are copied
// out first, so the record is back on the free list before anything it
// calls could schedule another IPI.
func (d *ipiDelivery) arrive() {
	ch, from, to := d.ch, d.from, d.to
	ch.ipiFree = append(ch.ipiFree, d)
	ch.gic.Raise(from, to)
	ch.cores[to].PostInterrupt(cpu.IRQIPI)
}

// gicHops is the mesh distance between a core's tile and its own chip's
// system interface port — where the GIC sits and, on multi-chip machines,
// the inter-chip link attaches. Every chip places the port at the same
// local coordinate.
func (ch *Chip) gicHops(core int) int {
	return mesh.Hops(ch.mesh.CoordOfCore(ch.localCore(core)), ch.cfg.GICPort)
}
