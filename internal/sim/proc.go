package sim

import (
	"fmt"
	"math"
	"runtime/debug"
)

// procState tracks where a process goroutine currently is.
type procState int

const (
	procNew      procState = iota // goroutine not started yet
	procRunning                   // holds the baton, executing its body
	procParked                    // parked, wake already scheduled (Sync)
	procSpinning                  // parked in Spin's own Advance or Sync: steppable in place
	procWaiting                   // parked indefinitely, needs an external Wake
	procDone                      // body returned
)

// errShutdown is panicked into parked goroutines to unwind them when the
// engine shuts down.
type shutdownError struct{}

func (shutdownError) Error() string { return "sim: engine shutdown" }

// staleWake is a wakeSeq no proc ever reaches: a wake record that is dead on
// arrival.
const staleWake = ^uint64(0)

// ProcPanic is what RunUntil panics with after a panic on a proc's goroutine,
// in its body or in an event callback it ran while parking, or in a Spin
// step the engine ran in place (then Proc names the spinning proc).
type ProcPanic struct {
	Proc  string // the proc whose goroutine panicked
	Value any    // the original panic value
	Stack []byte // that goroutine's stack at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: panic on proc %s: %v\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Proc is a simulated process: a goroutine that is resumed in strict
// simulated-time order. A Proc models one hardware core (or any other active
// entity).
//
// Procs maintain a local clock that may run ahead of the engine clock; see
// the package comment for the synchronization discipline.
type Proc struct {
	eng   *Engine
	name  string
	local Time
	state procState

	// quantum bounds the local-clock lookahead: Advance calls Sync once the
	// local clock is more than quantum ahead of the engine clock.
	// math.MaxInt64 means unbounded lookahead (overQuantum compares signed).
	quantum Duration

	resume chan struct{} // baton holder -> parked proc: run (closed: unwind)

	body func(*Proc)

	// onSync, when set, runs on the proc's goroutine every time the proc
	// returns from a park (Sync, Wait). The CPU model uses it to deliver
	// pending interrupts at well-defined points. idle, when set, reports that
	// onSync would do nothing right now; see SetSyncHook.
	onSync func()
	idle   func() bool

	// preWait, when set, runs before an indefinite park (Wait). If it
	// returns true — it performed work, e.g. delivered an interrupt that
	// was posted while the proc was running — the Wait returns immediately
	// as a spurious wakeup instead of parking, so the caller's
	// check-then-wait loop re-evaluates its condition. Without this hook an
	// event posted between a condition check and the park could go
	// unnoticed forever.
	preWait func() bool

	// wakeSeq guards against stale wake events: each park (and each Sync that
	// runs through) increments it, and a wake event only resumes the proc if
	// it still matches. A wake is thereby bound to one park.
	wakeSeq uint64

	// spin is the step of the Spin loop the proc is in; nil outside one and
	// once step has reported done. spinSync records that the current step
	// still owes its Sync. The engine may carry the loop on while the
	// goroutine is parked, so the loop's position lives here, not in Spin's
	// locals.
	spin     func() (Duration, bool, bool)
	spinSync bool

	// charge is the transit of the Charge in flight, and chargeStep its
	// Spin step (chargeNext, bound once).
	charge     Charge
	chargeStep func() (Duration, bool, bool)

	// halted marks a crashed process: it stays parked forever and every
	// dispatch attempt (wake, sync event, initial start) is ignored. Unlike
	// procDone the goroutine may still exist, parked; Engine.Shutdown
	// unwinds it like any other parked proc.
	halted bool
}

// NewProc creates a process that will start executing body at time start.
func (e *Engine) NewProc(name string, start Time, body func(*Proc)) *Proc {
	p := &Proc{
		eng:     e,
		name:    name,
		local:   start,
		quantum: math.MaxInt64,
		resume:  make(chan struct{}),
		body:    body,
	}
	p.chargeStep = p.chargeNext
	e.procs = append(e.procs, p)
	e.schedule(event{at: start, proc: p}) // wakeSeq 0: live until the first park
	return p
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// LocalTime returns the process-local clock, which is >= the engine clock
// whenever the process is running.
func (p *Proc) LocalTime() Time { return p.local }

// SetQuantum bounds local-clock lookahead; Advance will Sync whenever the
// lookahead exceeds q. Zero disables the bound.
func (p *Proc) SetQuantum(q Duration) {
	if q == 0 || q > math.MaxInt64 {
		q = math.MaxInt64
	}
	p.quantum = q
}

// SetSyncHook registers fn to run (on the proc goroutine) after every park.
// idle, when not nil, must report whether fn would do nothing right now:
// while it does, the engine may run a Spin loop's steps without the proc's
// goroutine and skip fn. A nil idle means fn always has work.
func (p *Proc) SetSyncHook(fn func(), idle func() bool) { p.onSync, p.idle = fn, idle }

// hookIdle reports whether the sync hook would do nothing right now.
func (p *Proc) hookIdle() bool { return p.onSync == nil || p.idle != nil && p.idle() }

// SetPreWaitHook registers fn to run before every indefinite park; see the
// preWait field.
func (p *Proc) SetPreWaitHook(fn func() bool) { p.preWait = fn }

// Halt permanently stops the process: it models a crashed core. The call
// must be made from an event callback or another process, while the
// process is parked, waiting, or not yet started; from then on every
// dispatch attempt is ignored and the body never runs again. Halting a
// finished process is a no-op.
func (p *Proc) Halt() {
	if p.state == procDone {
		return
	}
	p.halted = true
}

// run is the top of the proc goroutine. Whatever panics on it, the body or a
// callback run while parking, ends the proc and returns the baton to the
// engine's caller: RunUntil re-raises it, Shutdown takes it as the ack.
func (p *Proc) run() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		p.state = procDone
		switch r := r.(type) {
		case shutdownError:
		case *ProcPanic: // a Spin step this goroutine ran in place
			p.eng.fault = r
		default:
			p.eng.fault = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
		p.eng.idle <- struct{}{}
	}()
	p.body(p)
	p.state = procDone
	p.handOff()
}

// handOff runs the event loop on p's goroutine once p has parked or finished
// and passes the baton to whoever is due next. It reports whether that is p
// itself; if not, p must block on its resume channel or return.
func (p *Proc) handOff() bool {
	e := p.eng
	switch next := e.advance(); next {
	case p:
		e.stats.SelfWakes++
		p.state = procRunning
		return true
	case nil:
		e.idle <- struct{}{}
	default:
		e.handTo(next)
	}
	return false
}

// block hands the baton on once the process has parked and returns when it
// gets it back. The local clock is then pulled up to the engine clock: a
// parked process does not travel back in time.
func (p *Proc) block() {
	if !p.handOff() {
		if _, ok := <-p.resume; !ok {
			panic(shutdownError{})
		}
	}
	if p.eng.now > p.local {
		p.local = p.eng.now
	}
}

// Advance adds d to the local clock without engine interaction, unless the
// lookahead bound is exceeded, in which case it syncs.
func (p *Proc) Advance(d Duration) {
	p.local += d
	if p.overQuantum() {
		p.Sync()
	}
}

// overQuantum reports whether the lookahead exceeds the quantum. A local
// clock behind the engine's reads as a negative lookahead; one signed
// compare keeps Advance within the inliner's budget.
func (p *Proc) overQuantum() bool {
	return int64(p.local-p.eng.now) > int64(p.quantum)
}

// Sync parks the process until the engine clock reaches the local clock.
// After Sync returns, engine time equals local time and any effects the
// process applies are totally ordered against all other synced effects.
func (p *Proc) Sync() {
	if p.syncInPlace(procParked) {
		p.block()
	}
	if p.onSync != nil {
		p.onSync()
	}
}

// syncInPlace is Sync's decision, without blocking and without the hook.
// When the process must park it schedules the wake, enters state s and
// reports true. Otherwise the clocks end up in step: either the wake would
// be strictly first in the queue, so the process takes its sequence number
// and its place instead of parking (a run-through), or the local clock
// already equals the engine clock.
func (p *Proc) syncInPlace(s procState) bool {
	e := p.eng
	if p.local <= e.now {
		// Already in step; Sync still gives the hook a chance so interrupt
		// delivery cannot be starved by a proc that never runs ahead.
		e.stats.SyncInStep++
		return false
	}
	if at, ok := e.queue.headTime(); (ok && at <= p.local) || p.local > e.limit || e.stopped {
		p.wakeSeq++
		e.schedule(event{at: p.local, proc: p, wakeSeq: p.wakeSeq})
		p.state = s
		return true
	}
	e.stats.RunThroughs++
	e.seq++
	p.wakeSeq++
	e.now = p.local
	return false
}

// Spin runs a polling loop, one call of step per iteration. It is exactly
//
//	for {
//		d, sync, done := step()
//		if done {
//			return
//		}
//		if d != 0 {
//			p.Advance(d)
//		}
//		if sync {
//			p.Sync()
//		}
//	}
//
// in simulated time, dispatch order and every value produced. Only the host
// side differs: while the process is parked in the loop's own Advance or
// Sync, the engine runs the following iterations itself, on whichever
// goroutine pops the wake, until step reports done or the sync hook has
// work, and only then hands the process the baton. A core that keeps losing
// a test-and-set (scc.Chip.TASSpin) therefore costs no goroutine switch per
// retry, nor does a kernel per empty mailbox slot it probes, and a charged
// mail operation (mailbox.System.Send, Check, ScanTake) costs one switch
// however many Syncs it holds: each is a step chain, a loop that runs once.
// step may run on any goroutine, always at its own point in the (time, seq)
// order. Until a Sync parks, the loop runs on the goroutine as written.
func (p *Proc) Spin(step func() (d Duration, sync, done bool)) {
	for {
		d, sync, done := step()
		if done {
			return
		}
		if d != 0 {
			p.local += d
			if p.overQuantum() && p.spinSyncs(step, sync) { // Advance's rule
				return
			}
		}
		if sync && p.spinSyncs(step, false) {
			return
		}
	}
}

// spinSyncs is a Sync of a Spin loop of step that has not parked yet, with
// owed the Sync the current step still owes after it. It reports false when
// the Sync ran through or was in step (the hook has then run, as after any
// Sync), and true once it has parked and the loop has run to its end.
func (p *Proc) spinSyncs(step func() (Duration, bool, bool), owed bool) bool {
	if !p.syncInPlace(procSpinning) {
		if p.onSync != nil {
			p.onSync()
		}
		return false
	}
	outer, outerSync := p.spin, p.spinSync // the hook may spin inside a spin
	p.spin, p.spinSync = step, owed
	for p.block(); p.spin != nil; {
		// The hook has work. It runs here, on the goroutine, where a park
		// of its own is an ordinary one.
		p.onSync()
		if p.spinRun() {
			p.block()
		}
	}
	p.spin, p.spinSync = outer, outerSync
	return true
}

// Charge is Sync, Advance(d), Sync: a synchronous transaction whose effect
// the caller applies next. If the first Sync parks, the rest is a Spin step
// the engine runs in place, and the goroutine takes the baton once, at
// completion; if not, Charge is the three calls as written.
func (p *Proc) Charge(d Duration) {
	outer := p.charge // the hook may charge inside a charge
	p.charge.Begin(d)
	if !p.spinSyncs(p.chargeStep, false) {
		p.Advance(d)
		p.Sync()
	}
	p.charge = outer
}

// chargeNext is Charge's step after its first Sync.
func (p *Proc) chargeNext() (Duration, bool, bool) {
	d, owed := p.charge.Transit()
	return d, owed, !owed
}

// Charge is a charge inside a Spin step machine. The step that starts it
// returns Begin's result, the first Sync; the machine's next step returns
// the transit while Transit reports one, and the step after applies the
// transaction's effect.
type Charge struct {
	d    Duration
	owed bool
}

// Begin starts a charge of d and returns its first Sync as a step.
func (c *Charge) Begin(d Duration) (Duration, bool, bool) {
	c.d, c.owed = d, true
	return 0, true, false
}

// Transit returns the charge's Advance and second Sync, once per Begin.
func (c *Charge) Transit() (Duration, bool) {
	owed := c.owed
	c.owed = false
	return c.d, owed
}

// spinRun carries the Spin loop on from where it stands, without blocking.
// It reports true once the loop has parked in its own Advance or Sync, and
// false when the goroutine must take over: step reported done (p.spin is
// nil), or the hook has work.
func (p *Proc) spinRun() bool {
	for {
		if p.spinSync {
			p.spinSync = false
		} else {
			d, sync, done := p.spin()
			if done {
				p.spin = nil
				return false
			}
			p.spinSync = sync
			if d == 0 {
				continue
			}
			p.local += d
			if !p.overQuantum() { // Advance's rule
				continue
			}
		}
		if p.syncInPlace(procSpinning) {
			return true
		}
		if !p.hookIdle() {
			return false
		}
	}
}

// stepInPlace carries p's Spin loop on from the wake of its own park, on the
// goroutine that popped the wake, and reports whether the loop parked again
// without p's goroutine. A panic in step comes out as a *ProcPanic naming p,
// whichever goroutine it ran on. (The park was a Sync, so the engine clock
// is at the local clock already: there is nothing to pull up.)
func (p *Proc) stepInPlace() bool {
	defer func() {
		if r := recover(); r != nil {
			panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	return p.hookIdle() && p.spinRun()
}

// Wait parks the process indefinitely; some other entity must Wake it.
// The caller is responsible for the check-then-wait loop that makes lost
// wakeups impossible (see Signal). Wait may return spuriously (for example
// when a pending interrupt is delivered instead of parking).
func (p *Proc) Wait() {
	if p.preWait != nil && p.preWait() {
		return
	}
	p.state = procWaiting
	p.wakeSeq++
	p.block()
	if p.onSync != nil {
		p.onSync()
	}
}

// Wake schedules the process to resume at time at (or the current engine
// time if at is in the past). It resumes the process only out of the Wait it
// is in right now: waking a process that is running or parked in Sync is a
// no-op, as is a wake that fires after the process has moved on, so spurious
// wakes are harmless.
func (p *Proc) Wake(at Time) {
	if at < p.eng.now {
		at = p.eng.now
	}
	seq := p.wakeSeq
	if p.state != procWaiting {
		// Whatever p does next bumps wakeSeq, so this wake could never
		// match; it still takes its sequence number and its queue slot.
		seq = staleWake
	}
	p.eng.schedule(event{at: at, proc: p, wakeSeq: seq})
}

// shutdown unwinds a parked goroutine via panic so it does not leak.
func (p *Proc) shutdown() {
	switch p.state {
	case procParked, procSpinning, procWaiting:
		p.state = procDone
		// A normal resume would continue the body. Close resume instead:
		// block's receive fails and panics shutdownError, which run
		// recovers and acknowledges on idle.
		close(p.resume)
		<-p.eng.idle
	}
}

func (p *Proc) String() string {
	return fmt.Sprintf("proc(%s local=%d)", p.name, p.local)
}
