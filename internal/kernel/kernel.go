// Package kernel models MetalSVM's per-core bare-metal kernel: interrupt
// handling, timer ticks, the mail service loop, and a dissemination barrier
// built on the mailbox system.
//
// A Cluster boots one kernel per participating core. Each kernel registers
// typed mail handlers (the SVM system registers its ownership protocol
// here) and services incoming mail:
//
//   - in polling mode, on every interrupt and whenever it waits, the kernel
//     scans the receive slot of every active core (the paper's ~100 cycles
//     per slot — cost grows with the number of active cores);
//   - in IPI mode the interrupt handler asks the GIC which core raised the
//     interrupt and checks only that slot.
package kernel

import (
	"fmt"
	"io"
	"math"
	"strings"

	"metalsvm/internal/cpu"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// Message types. User layers (SVM, applications) register handlers for
// their own types at or above MsgUser.
const (
	// MsgBarrier carries dissemination-barrier notifications.
	MsgBarrier byte = 1
	// MsgUser is the first type available to higher layers.
	MsgUser byte = 16
)

// Config holds kernel parameters.
type Config struct {
	// Mode selects mail delivery (polling vs IPI), the axis of Figures 6/7.
	Mode mailbox.Mode
	// TimerPeriod is the local APIC timer period (kernels check mail on
	// every tick in polling mode). Zero disables the timer.
	TimerPeriod sim.Duration

	// WatchdogPeriod is the cluster progress watchdog's sampling window.
	// The watchdog only runs when the chip has an active fault injector
	// (core.WireFaults fills the defaults), so plain runs stay untouched:
	// if cluster-wide progress freezes for WatchdogStrikes consecutive
	// windows, the watchdog records a diagnostic report and stops the
	// engine instead of letting the run hang forever. Zero disables it.
	WatchdogPeriod sim.Duration
	// WatchdogStrikes is the number of consecutive frozen windows that
	// trigger the watchdog.
	WatchdogStrikes int
	// RescuePeriod bounds how long a hardened kernel may stay parked in
	// WaitFor or WaitUntil without rechecking its slots — the recovery
	// deadline for a wake-up lost to a dropped IPI. Zero disables rescue
	// deadlines.
	RescuePeriod sim.Duration
}

// DefaultConfig returns IPI-driven kernels with a 1 ms timer tick.
func DefaultConfig() Config {
	return Config{
		Mode:        mailbox.ModeIPI,
		TimerPeriod: sim.Microseconds(1000),
	}
}

// Handler services one incoming mail on the receiving kernel's goroutine.
type Handler func(k *Kernel, m mailbox.Msg)

// Stats counts kernel events.
type Stats struct {
	TimerTicks uint64
	IPIs       uint64
	Dispatched uint64
	Barriers   uint64
	// Rescues counts mails recovered by a hardened kernel's pre-park or
	// deadline rescue scan — mail whose IPI was dropped in the mesh.
	Rescues uint64
}

// Kernel is one core's kernel instance.
type Kernel struct {
	cluster *Cluster
	core    *cpu.Core
	id      int
	idx     int // index in the member list

	handlers [256]Handler

	// Dissemination-barrier bookkeeping: arrival counts per sender, so
	// early arrivals from fast partners are never lost or double-counted.
	barrier []barrierCount

	done      bool
	dead      bool // crash-halted; never executes again
	servicing bool // reentrancy guard for serviceSelf
	stats     Stats

	// onTick, when set, runs on every timer tick on this kernel's goroutine
	// — the replicated directory's failure detector lives here.
	onTick func()

	// timerLCG drives the deterministic tick jitter (see armTimer), and
	// tick is the timer event, bound once.
	timerLCG uint64
	tick     func()

	// claimed is handleIRQ's buffer for the GIC's origin set.
	claimed []int
}

// Cluster boots and owns the kernels of the participating cores.
type Cluster struct {
	chip    *scc.Chip
	mb      *mailbox.System
	cfg     Config
	members []int
	kernels map[int]*Kernel
	// doneCount tracks finished mains; kernels keep servicing mail until
	// every member is done, so a late page fault always finds its peer
	// alive (a real kernel idles and serves — it never "returns").
	doneCount int
	// deadCount tracks members that crash-halted before finishing; the
	// cluster is finished when every member is done or dead.
	deadCount int
	// crashAfterDone holds crash delays applied when a member's main
	// returns (ScheduleCrashAfterDone).
	crashAfterDone map[int]sim.Duration
	// crashesArmed records that a permanent crash has been scheduled (or
	// that the machine's fault spec carries crash entries). BarrierGroup
	// consults it to pick the crash-tolerant all-to-all rendezvous instead
	// of the dissemination barrier; because crashes are armed before the
	// engine runs, every member agrees on the scheme for the whole run.
	crashesArmed bool

	// prof, when set, receives bucket transitions from barrier and wait
	// paths; it charges no simulated time.
	prof *profile.Profiler

	// scanLoop, when set, replaces serviceAll's body: the tests run the
	// scan as a literal probe loop with it, to hold mailbox.ScanTake to it.
	scanLoop func(*Kernel) bool

	// Progress watchdog state (armed only with an active fault injector).
	diag      []func(io.Writer)
	wdLast    uint64
	wdStrikes int
	wdFired   bool
	wdReport  string
}

// SetProfiler installs the cycle-attribution profiler on the cluster and
// its mailbox layer; nil disables it.
func (cl *Cluster) SetProfiler(p *profile.Profiler) {
	cl.prof = p
	cl.mb.SetProfiler(p)
}

// NewCluster creates a cluster over the given (sorted, distinct) member
// cores.
func NewCluster(chip *scc.Chip, cfg Config, members []int) (*Cluster, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("kernel: empty member list")
	}
	seen := map[int]bool{}
	for i, m := range members {
		if m < 0 || m >= chip.Cores() {
			return nil, fmt.Errorf("kernel: member %d out of range", m)
		}
		if seen[m] {
			return nil, fmt.Errorf("kernel: duplicate member %d", m)
		}
		seen[m] = true
		if i > 0 && members[i-1] > m {
			return nil, fmt.Errorf("kernel: member list not sorted")
		}
	}
	cl := &Cluster{
		chip:    chip,
		mb:      mailbox.New(chip, cfg.Mode),
		cfg:     cfg,
		members: append([]int(nil), members...),
		kernels: make(map[int]*Kernel),
	}
	if cfg.WatchdogPeriod > 0 && cfg.WatchdogStrikes > 0 && chip.FaultInjector().Enabled() {
		cl.armWatchdog()
	}
	return cl, nil
}

// --- Progress watchdog ----------------------------------------------------

// AddDiagnostic registers a dumper whose output joins the watchdog report
// (the SVM system registers its owner-table and lock dump here).
func (cl *Cluster) AddDiagnostic(d func(io.Writer)) { cl.diag = append(cl.diag, d) }

// WatchdogFired reports whether the progress watchdog stopped the run.
func (cl *Cluster) WatchdogFired() bool { return cl.wdFired }

// WatchdogReport returns the diagnostic dump recorded when the watchdog
// fired (empty otherwise).
func (cl *Cluster) WatchdogReport() string { return cl.wdReport }

// progress is the watchdog's cluster-wide liveness measure: protocol-level
// completions only. Core-local time and retransmissions deliberately do not
// count — a core spinning on a stuck lock or a sender retransmitting into
// the void advances both forever without the cluster getting anywhere.
func (cl *Cluster) progress() uint64 {
	st := cl.mb.Stats()
	p := st.Sends + st.Recvs + uint64(cl.doneCount) + uint64(cl.deadCount)
	for _, m := range cl.members {
		if k := cl.kernels[m]; k != nil {
			p += k.stats.Dispatched + k.stats.Barriers
		}
	}
	return p
}

func (cl *Cluster) armWatchdog() {
	cl.chip.Engine().After(cl.cfg.WatchdogPeriod, func() { cl.watchdogTick() })
}

func (cl *Cluster) watchdogTick() {
	if cl.wdFired || cl.finished() {
		return // run finished (or already aborted): let the queue drain
	}
	p := cl.progress()
	if p != cl.wdLast {
		cl.wdLast = p
		cl.wdStrikes = 0
	} else {
		cl.wdStrikes++
		if cl.wdStrikes >= cl.cfg.WatchdogStrikes {
			cl.fireWatchdog(p)
			return
		}
	}
	cl.armWatchdog()
}

// fireWatchdog records the diagnostic report and stops the engine: the run
// ends at the current simulated time instead of hanging the host. The
// report is kept on the cluster (WatchdogReport), not printed — harnesses
// and tests decide whether a fired watchdog is a failure.
func (cl *Cluster) fireWatchdog(p uint64) {
	cl.wdFired = true
	eng := cl.chip.Engine()
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog: no cluster progress for %d windows of %.0f us (progress=%d, %d/%d kernels done, %d dead) at %.3f us\n",
		cl.wdStrikes, cl.cfg.WatchdogPeriod.Microseconds(), p,
		cl.doneCount, len(cl.members), cl.deadCount, eng.Now().Microseconds())
	for _, m := range cl.members {
		if k := cl.kernels[m]; k != nil {
			fmt.Fprintf(&b, "  %s\n", k.DebugString())
		}
	}
	cl.mb.DumpInFlight(&b)
	for _, d := range cl.diag {
		d(&b)
	}
	cl.wdReport = b.String()
	cl.chip.Tracer().Emit(eng.Now(), -1, trace.KindWatchdog, uint64(cl.wdStrikes), p)
	eng.Stop()
}

// finished reports whether every member has either completed its main or
// crash-halted — the cluster's termination condition.
func (cl *Cluster) finished() bool {
	return cl.doneCount+cl.deadCount == len(cl.members)
}

// isDead reports whether member id has crash-halted. Host-side read; always
// false without crash faults, so barrier conditions may consult it freely.
func (cl *Cluster) isDead(id int) bool {
	k := cl.kernels[id]
	return k != nil && k.dead
}

// --- Crash faults ---------------------------------------------------------

// ScheduleCrash arranges for member id to crash-halt at absolute simulated
// time at: the core stops executing forever, its liveness bit latches in
// the chip's register, and every survivor blocked on it is woken to
// re-evaluate. Call before the engine runs (or from engine context).
func (cl *Cluster) ScheduleCrash(id int, at sim.Time) {
	cl.crashesArmed = true
	cl.chip.Engine().At(at, func() { cl.crash(id) })
}

// ArmCrashBarriers switches every barrier of the run to the crash-tolerant
// all-to-all rendezvous (see BarrierGroup) without scheduling a concrete
// crash. The machine calls it when the fault spec carries crash entries —
// including time-less harness markers — so a calibration run with inert
// crash entries stays bit-identical to the armed run it calibrates. Must be
// called before the first barrier; Schedule-Crash and ScheduleCrashAfterDone
// arm implicitly.
func (cl *Cluster) ArmCrashBarriers() { cl.crashesArmed = true }

// ScheduleCrashAfterDone arranges for member id to crash-halt d after its
// kernel main returns — the "owner dies right after producing data others
// still need" schedule. A member that never finishes never fires it.
func (cl *Cluster) ScheduleCrashAfterDone(id int, d sim.Duration) {
	cl.crashesArmed = true
	if cl.crashAfterDone == nil {
		cl.crashAfterDone = make(map[int]sim.Duration)
	}
	cl.crashAfterDone[id] = d
}

// crash is the crash event body; it runs in engine context, where the
// victim is parked (only one proc executes at a time), so the halt is a
// clean cut between two of its instructions.
func (cl *Cluster) crash(id int) {
	k := cl.kernels[id]
	if k == nil || k.dead {
		return
	}
	k.dead = true
	cl.chip.MarkCrashed(id)
	k.core.Proc().Halt()
	finished := uint64(0)
	if k.done {
		finished = 1 // already counted in doneCount
	} else {
		cl.deadCount++
	}
	now := cl.chip.Engine().Now()
	cl.chip.Tracer().Emit(now, id, trace.KindCrash, finished, 0)
	// Wake everyone the corpse could be blocking: senders stuck on its
	// slots, barrier partners waiting for its notification, service tails
	// recounting the cluster.
	cl.mb.NoteCrashed(id, now)
}

// Chip returns the platform.
func (cl *Cluster) Chip() *scc.Chip { return cl.chip }

// Mailbox returns the mailbox layer.
func (cl *Cluster) Mailbox() *mailbox.System { return cl.mb }

// Members returns the participating cores.
func (cl *Cluster) Members() []int { return cl.members }

// Kernel returns the kernel on core id (nil before Start).
func (cl *Cluster) Kernel(id int) *Kernel { return cl.kernels[id] }

// Start boots core id with main as the kernel's task. It must be called
// before the engine runs.
func (cl *Cluster) Start(id int, main func(*Kernel)) *Kernel {
	idx := -1
	for i, m := range cl.members {
		if m == id {
			idx = i
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("kernel: core %d is not a cluster member", id))
	}
	if cl.kernels[id] != nil {
		panic(fmt.Sprintf("kernel: core %d started twice", id))
	}
	k := &Kernel{
		cluster: cl,
		id:      id,
		idx:     idx,
		barrier: make([]barrierCount, cl.chip.Cores()),
	}
	cl.kernels[id] = k
	k.RegisterHandler(MsgBarrier, k.handleBarrierMail)
	cl.mb.SetServiceHook(id, k.serviceSelf)
	k.core = cl.chip.Boot(id, func(c *cpu.Core) {
		c.SetIRQHandler(k.handleIRQ)
		main(k)
		k.done = true
		cl.doneCount++
		if d, ok := cl.crashAfterDone[id]; ok {
			cl.ScheduleCrash(id, c.Proc().LocalTime()+d)
		}
		if cl.finished() {
			// Last one out wakes every kernel parked in its service tail.
			for _, m := range cl.members {
				if m != id {
					cl.mb.WaitAnySignal(m).Fire(c.Proc().LocalTime())
				}
			}
			return
		}
		// Service tail: keep answering mail (ownership requests, barrier
		// notices from faster peers) until the whole cluster is done.
		k.WaitFor(func() bool { return cl.finished() })
	})
	if cl.cfg.TimerPeriod > 0 {
		// Stagger the first tick per core: kernels do not boot in lockstep,
		// and phase-locked ticks would let a deterministic workload resonate
		// with the timer (systematically hitting — or missing — the same
		// critical windows).
		phase := cl.cfg.TimerPeriod * sim.Duration(id) / sim.Duration(cl.chip.Cores())
		k.tick = func() {
			if k.done || k.dead {
				return
			}
			k.core.PostInterrupt(cpu.IRQTimer)
			cl.armTimer(k)
		}
		cl.chip.Engine().After(phase, func() { cl.armTimer(k) })
	}
	return k
}

func (cl *Cluster) armTimer(k *Kernel) {
	// Jitter each period by up to ±6% with a per-kernel LCG. Real timer
	// crystals drift relative to each other; without this, a fully
	// deterministic workload can phase-lock against the tick and every
	// round systematically hits (or dodges) the handler's scan window,
	// producing resonance artifacts no physical SCC would show.
	k.timerLCG = k.timerLCG*6364136223846793005 + uint64(k.id)*2862933555777941757 + 3037000493
	frac := int64(k.timerLCG>>40) % 1000 // 0..999
	period := cl.cfg.TimerPeriod
	jitter := sim.Duration(uint64(period) / 1000 * uint64(frac) / 8)
	cl.chip.Engine().After(period-period/16+jitter, k.tick)
}

// --- Kernel API ----------------------------------------------------------

// ID returns the core number.
func (k *Kernel) ID() int { return k.id }

// Index returns the kernel's rank in the member list.
func (k *Kernel) Index() int { return k.idx }

// Core returns the underlying core model.
func (k *Kernel) Core() *cpu.Core { return k.core }

// Cluster returns the owning cluster.
func (k *Kernel) Cluster() *Cluster { return k.cluster }

// Chip returns the platform.
func (k *Kernel) Chip() *scc.Chip { return k.cluster.chip }

// Stats returns a snapshot of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Finished reports whether the kernel's main has returned.
func (k *Kernel) Finished() bool { return k.done }

// Dead reports whether the kernel's core crash-halted.
func (k *Kernel) Dead() bool { return k.dead }

// SetTickHook installs fn to run on every timer tick on this kernel's
// goroutine (after the tick's mail servicing) — the replicated directory's
// failure detector. Nil disables it.
func (k *Kernel) SetTickHook(fn func()) { k.onTick = fn }

// RegisterHandler installs the handler for a mail type. Installing twice
// panics — handler wiring bugs should not hide.
func (k *Kernel) RegisterHandler(typ byte, h Handler) {
	if k.handlers[typ] != nil {
		panic(fmt.Sprintf("kernel %d: handler for type %d registered twice", k.id, typ))
	}
	k.handlers[typ] = h
}

// Send mails another kernel, blocking while its slot is full (slots drain
// quickly because receivers always consume in their handlers). Interrupts
// are still taken while it waits; a hardened send also drains this
// kernel's own inbox.
func (k *Kernel) Send(to int, typ byte, payload []byte) {
	k.cluster.mb.Send(k.id, to, typ, payload)
}

func (k *Kernel) dispatch(m mailbox.Msg) {
	h := k.handlers[m.Type]
	if h == nil {
		panic(fmt.Sprintf("kernel %d: no handler for mail type %d from %d", k.id, m.Type, m.From))
	}
	k.stats.Dispatched++
	h(k, m)
}

// serviceAll scans every other member's slot once, dispatching what it
// finds, and reports whether anything was processed. This is the
// polling-mode cost center: each slot check costs ~100 cycles. The probes
// of empty slots and the take of a full one run in place
// (mailbox.ScanTake); the goroutine takes over for each mail taken, so
// handlers run here.
func (k *Kernel) serviceAll() bool {
	if k.cluster.scanLoop != nil {
		return k.cluster.scanLoop(k)
	}
	mb, members := k.cluster.mb, k.cluster.members
	progress := false
	for i := 0; ; i++ {
		j, msg, ok := mb.ScanTake(k.id, members, i, k.id)
		if j == len(members) {
			return progress
		}
		if ok {
			k.dispatch(msg)
			progress = true
		}
		i = j
	}
}

// serviceSelf is the mailbox's blocked-sender callback: a kernel whose
// hardened send waits for an acknowledgement drains its own inbox so two
// kernels replying to each other from their interrupt handlers cannot
// deadlock. The guard stops the recursion a drained request's reply would
// otherwise start.
func (k *Kernel) serviceSelf() bool {
	if k.servicing {
		return false
	}
	k.servicing = true
	defer func() { k.servicing = false }()
	return k.serviceAll()
}

// handleIRQ is the kernel's interrupt entry point.
func (k *Kernel) handleIRQ(c *cpu.Core, irq cpu.IRQ) {
	switch irq {
	case cpu.IRQTimer:
		k.stats.TimerTicks++
		if k.cluster.cfg.Mode == mailbox.ModePolling {
			// The kernel checks all receive buffers at every interrupt.
			k.serviceAll()
		}
		if k.onTick != nil {
			k.onTick()
		}
	case cpu.IRQIPI:
		k.stats.IPIs++
		// The GIC names the raising cores: check exactly those buffers.
		// Handlers never nest (cpu.Core.inHandler), so the buffer is free.
		k.claimed = k.Chip().GIC().ClaimAll(k.id, k.claimed[:0])
		for _, from := range k.claimed {
			if msg, ok := k.cluster.mb.Check(k.id, from); ok {
				k.dispatch(msg)
			}
		}
	}
}

// never is the deadline of a wait that has none.
const never = sim.Time(math.MaxUint64)

// WaitFor blocks until cond() is true, servicing incoming mail the whole
// time — this is what makes the ownership protocol deadlock-free: a kernel
// waiting for an ownership reply still serves ownership requests aimed at
// it. The condition is typically flipped by a registered handler.
func (k *Kernel) WaitFor(cond func() bool) { k.WaitUntil(cond, never) }

// WaitUntil is WaitFor with a deadline in simulated time: it returns true
// once cond() holds, or false when the deadline passes first, servicing
// incoming mail the whole time. The replicated directory's client RPCs use
// it — a request to a crashed manager must time out, not hang. It is the
// kernel's one wait loop; WaitFor is WaitUntil(cond, never).
func (k *Kernel) WaitUntil(cond func() bool, deadline sim.Time) bool {
	proc := k.core.Proc()
	k.cluster.prof.EnterIfIdle(k.id, profile.MailboxWait, proc.LocalTime())
	defer func() { k.cluster.prof.Exit(k.id, proc.LocalTime()) }()
	sig := k.cluster.mb.WaitAnySignal(k.id)
	polling := k.cluster.cfg.Mode == mailbox.ModePolling
	hardened := k.Chip().FaultsHardened()
	rescue := k.cluster.cfg.RescuePeriod
	for !cond() {
		if proc.LocalTime() >= deadline {
			return false
		}
		// Capture the deposit eventcount before scanning: the scan parks
		// at every slot probe, and a mail deposited into an already-probed
		// slot during that window must not leave us sleeping.
		seq := sig.Seq()
		// Polling kernels scan every slot before parking. Hardened IPI
		// kernels do too, as a rescue scan: a dropped interrupt leaves a
		// deposited mail nobody would ever check for.
		if (polling || hardened) && k.serviceAll() {
			if !polling {
				k.stats.Rescues++
			}
			continue
		}
		// The scan charges cycles per slot probe, so it can carry the local
		// clock past the deadline; parking then would schedule a wake in the
		// past. Recheck before parking.
		if proc.LocalTime() >= deadline {
			return false
		}
		// Park with the deadline as a wake-up, or the rescue period if that
		// is sooner (hardened: every notification may have been lost).
		// The cond/seq check absorbs spurious wake-ups; with neither bound
		// nothing is scheduled.
		at := deadline
		if hardened && rescue > 0 && proc.LocalTime()+rescue < at {
			at = proc.LocalTime() + rescue
		}
		if at != never {
			sig.Deadline(at)
		}
		sig.WaitSeq(proc, seq)
	}
	return true
}

// Barrier synchronizes all cluster members with a dissemination barrier:
// ceil(log2(n)) rounds of one mail each. Mail from partners that raced
// ahead into the next barrier is accounted, not lost.
func (k *Kernel) Barrier() {
	k.BarrierGroup(k.cluster.members)
}

// BarrierGroup runs a barrier over group — a sorted subset of the cluster
// members that includes this kernel. With group equal to the full member
// list it is exactly Barrier (same partners, same mail, same charges).
//
// Without crash faults armed this is the dissemination barrier:
// ceil(log2(n)) rounds of one mail each. With crashes armed (ScheduleCrash,
// ScheduleCrashAfterDone or ArmCrashBarriers), every barrier of the run is
// instead an all-to-all rendezvous: notify every peer, wait on every peer,
// accepting the latched liveness register in place of a dead peer's mail.
// The dissemination rounds cannot simply skip dead partners: their
// correctness is transitive — a member's exit depends on a distant peer only
// through the chain of intermediate partners — so skipping the wait on a
// crashed partner severs every chain through it, and a survivor can leave
// the barrier before another survivor has arrived (in Free, that recycles
// frames a straggler still reads). The all-to-all form needs no
// transitivity: every survivor's exit depends on every other survivor's own
// notification. It costs O(n²) mail, paid only on runs that can crash;
// because arming happens before the engine runs, all members always agree
// on the scheme and fault-free runs keep the dissemination barrier bit for
// bit.
func (k *Kernel) BarrierGroup(group []int) {
	k.stats.Barriers++
	k.Chip().Tracer().Emit(k.core.Now(), k.id, trace.KindBarrier, k.stats.Barriers, 0)
	k.cluster.prof.Enter(k.id, profile.BarrierWait, k.core.Proc().LocalTime())
	n := len(group)
	pos := -1
	for i, m := range group {
		if m == k.id {
			pos = i
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("kernel %d: BarrierGroup over %v excludes self", k.id, group))
	}
	if k.cluster.crashesArmed {
		k.barrierCrashTolerant(group, pos)
	} else {
		for r := 1; r < n; r <<= 1 {
			to := group[(pos+r)%n]
			from := group[(pos-r+n)%n]
			k.Send(to, MsgBarrier, nil)
			k.WaitFor(func() bool { return k.barrier[from].waiting() })
			k.barrier[from].used++
		}
	}
	k.Chip().Tracer().Emit(k.core.Now(), k.id, trace.KindBarrierDone, k.stats.Barriers, 0)
	k.cluster.prof.Exit(k.id, k.core.Proc().LocalTime())
}

// barrierCrashTolerant is the all-to-all rendezvous used when permanent
// crashes are armed. Sends are staggered around the ring so n members do
// not all hammer the same slot first; a dead peer's mail is neither sent
// (the mailbox discards it) nor awaited (the liveness register substitutes),
// but mail a peer managed to send before dying is still consumed, keeping
// the per-sender counters balanced for the next barrier.
func (k *Kernel) barrierCrashTolerant(group []int, pos int) {
	n := len(group)
	for i := 1; i < n; i++ {
		k.Send(group[(pos+i)%n], MsgBarrier, nil)
	}
	for i := 1; i < n; i++ {
		from := group[(pos+i)%n]
		k.WaitFor(func() bool {
			return k.barrier[from].waiting() || k.cluster.isDead(from)
		})
		if k.barrier[from].waiting() {
			k.barrier[from].used++
		}
	}
}

// handleBarrierMail is the MsgBarrier handler: it counts the sender's
// notification for BarrierGroup's wait, including one that raced ahead into
// the next barrier.
func (k *Kernel) handleBarrierMail(_ *Kernel, m mailbox.Msg) {
	k.barrier[m.From].seen++
}

// barrierCount is one sender's barrier notifications: seen arrived, used
// consumed by a barrier.
type barrierCount struct{ seen, used uint32 }

// waiting reports whether a notification has arrived and is not consumed.
func (c barrierCount) waiting() bool { return c.seen > c.used }

// DebugString summarizes internal wait state for diagnostics.
func (k *Kernel) DebugString() string {
	s := fmt.Sprintf("kernel %d: barriers=%d done=%v seen/used:", k.id, k.stats.Barriers, k.done)
	if k.dead {
		s = fmt.Sprintf("kernel %d: DEAD barriers=%d done=%v seen/used:", k.id, k.stats.Barriers, k.done)
	}
	for c, b := range k.barrier {
		if b != (barrierCount{}) {
			s += fmt.Sprintf(" %d:%d/%d", c, b.seen, b.used)
		}
	}
	return s
}
