// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives a set of processes (Proc), each backed by a goroutine,
// in strict simulated-time order: exactly one process executes at any moment,
// and pending events are ordered by (time, insertion sequence). Every run of
// the same program therefore produces bit-identical simulated timestamps.
//
// There is no engine goroutine. Whoever holds the baton runs: a process that
// parks pops events itself (Engine.advance), running callbacks in place,
// until a process wake comes up, and then either carries on (the wake is its
// own) or hands the baton to that process and blocks. Callbacks therefore run
// on whichever goroutine holds the baton, still exactly one at a time. So do
// the steps of a polling loop run as Proc.Spin: the engine carries the loop
// on in place, without switching to the process, until it is done or the
// process has other work. A step chain, a Spin that runs once, does the same
// for an operation made of several synchronous accesses (a charged access,
// Proc.Charge, is the shortest), so the process resumes once, at its end.
//
// Processes own a local clock that may run ahead of the global engine clock
// while they model compute or private-memory activity (Advance). Before any
// operation whose effect must be globally ordered — a write to a shared
// mailbox flag, a test-and-set register access, an ownership-vector update —
// the process calls Sync, which parks it until the engine clock catches up
// with its local clock. Correctly synchronized simulated programs therefore
// observe the same values as a fully serialized execution, while bulk data
// accesses stay cheap (no event per access).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in picoseconds.
//
// Picoseconds are fine enough to mix clock domains (533 MHz cores, 800 MHz
// mesh and memory) without accumulating rounding drift that would matter at
// the microsecond scales the experiments report, and a uint64 of picoseconds
// spans over 200 days of simulated time.
type Time uint64

// Microseconds converts t to microseconds as a float, for reporting.
func (t Time) Microseconds() float64 { return float64(t) / 1e6 }

// Duration is a span of simulated time, in picoseconds.
type Duration = Time

// Microseconds builds a duration from a microsecond count.
func Microseconds(us float64) Duration { return Duration(math.Round(us * 1e6)) }

// Clock converts cycle counts of a fixed-frequency clock domain into
// simulated time.
type Clock struct {
	// PeriodPS is the clock period in picoseconds.
	PeriodPS uint64
}

// MHz returns the clock for a frequency given in megahertz.
func MHz(f float64) Clock {
	if f <= 0 {
		panic("sim: non-positive clock frequency")
	}
	return Clock{PeriodPS: uint64(math.Round(1e6 / f))}
}

// Cycles returns the duration of n clock cycles.
func (c Clock) Cycles(n uint64) Duration { return Duration(n * c.PeriodPS) }

// ToCycles converts a duration into whole cycles of this clock (rounded down).
func (c Clock) ToCycles(d Duration) uint64 { return uint64(d) / c.PeriodPS }

// Engine is the central event queue and scheduler.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   radixQueue // pending events in (time, sequence) order; see queue.go
	procs   []*Proc
	stopped bool
	limit   Time          // RunUntil's bound: no event past it is dispatched
	idle    chan struct{} // hands the baton back to RunUntil's (or Shutdown's) caller
	fault   *ProcPanic    // a panic recovered on a proc's goroutine, for RunUntil to re-raise
	stats   Stats
	// deadlines are Signal.Deadline's free event records.
	deadlines []*deadline
}

// Stats are exact, bit-reproducible counts of what the engine did.
type Stats struct {
	Events        uint64 // records popped from the queue
	ClosureEvents uint64 // of those, callbacks (the rest are proc wakes, live or stale)
	ProcSwitches  uint64 // batons handed to another goroutine: one host switch each
	SelfWakes     uint64 // wakes the parking proc popped for itself: no switch
	RunThroughs   uint64 // Syncs that would have been the queue head and did not park
	SyncInStep    uint64 // Syncs with the local clock already at the engine clock
	InPlaceSteps  uint64 // Spin wakes the engine ran on until the loop parked again: no switch
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{idle: make(chan struct{})} }

// Now returns the current global simulated time.
func (e *Engine) Now() Time { return e.now }

// Stats returns the engine's counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would violate causality and mask a modeling bug.
func (e *Engine) At(t Time, fn func()) { e.schedule(event{at: t, fn: fn}) }

// schedule gives ev the next sequence number and queues it.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d before now %d", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// Stop makes Run return once the running proc parks or the current callback
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in (time, sequence) order until the queue drains or
// Stop is called. It returns the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(Time(math.MaxUint64)) }

// RunUntil dispatches events with timestamps <= limit, then returns the
// engine clock, which is left at the last dispatched event: it never moves
// to limit itself, and stays where it was when nothing was dispatched. A
// panic on a proc's goroutine is re-raised here as a *ProcPanic.
func (e *Engine) RunUntil(limit Time) Time {
	e.limit = limit
	if p := e.advance(); p != nil {
		e.handTo(p)
		<-e.idle
	}
	if f := e.fault; f != nil {
		e.fault = nil
		panic(f)
	}
	return e.now
}

// advance is the event loop. It pops events in (time, sequence) order, runs
// callbacks in place and returns the first live proc wake; nil means the
// queue is drained, past the limit or stopped. It runs on whichever
// goroutine holds the baton: RunUntil's caller, or the proc that is parking.
func (e *Engine) advance() *Proc {
	var ev event
	for !e.stopped {
		at, ok := e.queue.headTime()
		if !ok || at > e.limit {
			break
		}
		e.queue.pop(&ev)
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %d behind clock %d", ev.at, e.now))
		}
		e.now = ev.at
		e.stats.Events++
		if ev.fn != nil {
			e.stats.ClosureEvents++
			ev.fn()
		} else if p := ev.proc; p.wakeSeq == ev.wakeSeq && p.state != procDone && !p.halted {
			if p.state == procSpinning && p.stepInPlace() {
				e.stats.InPlaceSteps++
				continue
			}
			return p
		}
	}
	return nil
}

// handTo passes the baton to p's goroutine. The caller must block (or
// return) right after: exactly one goroutine runs at a time.
func (e *Engine) handTo(p *Proc) {
	e.stats.ProcSwitches++
	if p.state == procNew {
		p.state = procRunning
		go p.run()
		return
	}
	p.state = procRunning
	p.resume <- struct{}{}
}

// Shutdown terminates all process goroutines that are still parked. It must
// be called after Run returns when processes may still be blocked (for
// example an idle loop waiting for mail that will never arrive), otherwise
// their goroutines leak. Shutdown is idempotent.
func (e *Engine) Shutdown() {
	for _, p := range e.procs {
		p.shutdown()
	}
}
