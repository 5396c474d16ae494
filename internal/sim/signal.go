package sim

// Signal wakes processes that are waiting for a condition to change.
//
// Users must follow the check-then-wait discipline:
//
//	for !condition() {
//	    sig.Wait(p)
//	}
//
// together with the rule that whoever makes the condition true does so at a
// globally ordered time (after Sync) and then Fires the signal at the time
// the change becomes visible. Under that discipline wakeups cannot be lost:
// either the change is applied before the waiter's check (the check sees
// it), or the waiter is already registered when the Fire event runs.
//
// Wait can return spuriously (for example when the waiting process receives
// an interrupt); the check loop absorbs that.
type Signal struct {
	eng     *Engine
	waiters []*Proc
	// seq is an eventcount: it increments every time a Fire event executes.
	// Waiters that may perform multiple parking operations between checking
	// their condition and finally waiting (e.g. a mailbox scan, where every
	// slot probe syncs) capture Seq first and use WaitSeq, which refuses to
	// park if a Fire slipped into that window.
	seq uint64
	// fire is s.onFire, bound on the first Fire so later fires schedule it
	// without allocating.
	fire func()
}

// NewSignal returns a signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait registers p as a waiter and parks it until a Fire (or any other Wake)
// resumes it. Callers must re-check their condition afterwards.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.Wait()
	s.remove(p)
}

// remove unregisters p's first entry, preserving the others' order.
func (s *Signal) remove(p *Proc) {
	for i, w := range s.waiters {
		if w == p {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Fire schedules a wake of every currently registered waiter at time at
// (clamped to the present). Waiter order is registration order, keeping the
// engine deterministic.
func (s *Signal) Fire(at Time) {
	if at < s.eng.now {
		at = s.eng.now
	}
	if s.fire == nil {
		s.fire = s.onFire
	}
	s.eng.At(at, s.fire)
}

// onFire is the Fire event. Wake only queues a record, so the waiter list
// cannot change while it is walked.
func (s *Signal) onFire() {
	s.seq++
	for _, p := range s.waiters {
		p.Wake(s.eng.now)
	}
}

// Deadline schedules an event at time at whose body fires the signal then
// (two queue events), so a waiter parked with a deadline re-checks its
// condition once it passes. Event records are recycled through the engine:
// a warm Deadline allocates nothing, and no second bound method value
// pushes Signal out of its 48-byte allocation size class.
func (s *Signal) Deadline(at Time) {
	e := s.eng
	var d *deadline
	if n := len(e.deadlines); n > 0 {
		d, e.deadlines = e.deadlines[n-1], e.deadlines[:n-1]
	} else {
		d = &deadline{}
		d.run = d.fire
	}
	d.sig = s
	e.At(at, d.run)
}

// deadline is one scheduled Deadline event.
type deadline struct {
	sig *Signal
	run func() // d.fire, bound once per record
}

// fire returns the record to the free list, then fires its signal.
func (d *deadline) fire() {
	s := d.sig
	s.eng.deadlines = append(s.eng.deadlines, d)
	s.Fire(s.eng.now)
}

// Seq returns the eventcount value; see WaitSeq.
func (s *Signal) Seq() uint64 { return s.seq }

// WaitSeq parks p unless the signal fired since seq was captured (in which
// case it returns immediately, as a spurious wakeup, so the caller
// re-checks its condition).
func (s *Signal) WaitSeq(p *Proc, seq uint64) {
	if s.seq != seq {
		return
	}
	s.Wait(p)
}

// Waiters reports how many processes are currently registered.
func (s *Signal) Waiters() int { return len(s.waiters) }

// WaitAnySeq parks p until any of sigs fires (or any other Wake reaches the
// process); like Wait it may return spuriously, and callers loop. If seqs
// is non-nil (parallel to sigs) and any signal fired since its seq was
// captured, the call returns immediately instead of parking. Use it when
// the caller performs parking operations between its condition checks and
// this wait.
func WaitAnySeq(p *Proc, sigs []*Signal, seqs []uint64) {
	if seqs != nil {
		for i, s := range sigs {
			if s.seq != seqs[i] {
				return
			}
		}
	}
	for _, s := range sigs {
		s.waiters = append(s.waiters, p)
	}
	p.Wait()
	for _, s := range sigs {
		s.remove(p)
	}
}
