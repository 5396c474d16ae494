// Engine-internal conservative-PDES wave runner: the only file in
// internal/sim that runs more than one process goroutine at a time. Every
// concurrent section is bounded by a wave (see below) and produces results
// bit-identical to serial dispatch by replaying the wave's bookkeeping
// through the main event queue in exact serial (time, sequence) order.
//
//metalsvm:host-parallel
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Intra-run parallel dispatch (conservative PDES).
//
// The serial engine dispatches one event at a time; a process resumed by a
// quantum-bounded Sync runs one compute segment — loads, stores, cache and
// mesh modeling against its own core state — and parks again. Those
// "pure" segments (quantum parks scheduled by Advance) have a property the
// wave runner exploits: they touch no globally ordered state. Every effect
// that another process could observe — an MPB flag, a TAS register, an
// ownership word, an IPI — is applied behind Proc.Sync (an "effect" park),
// and every channel by which one core influences another running core has a
// hard latency floor derived from the mesh geometry: an interrupt pays the
// core-side raise plus interrupt-controller processing plus a mesh
// traversal before the target can observe it at its next park, and every
// other influence rides a queued event the horizon below already bounds.
//
// A wave forms when the queue head is a pure quantum wake: the engine pops
// the maximal run of consecutive eligible pure wakes (the cohort) and
// computes for each member a horizon
//
//	limit(p) = min(next queued event time,
//	               min over other members q of wake(q) + lookahead(p))
//
// where lookahead(p) is the per-core influence floor (provided by the
// platform layer from the exported mesh lookahead matrix). All cohort
// members then run concurrently on a bounded worker pool. Each member
// executes exactly the segments the serial engine would have: it runs
// through quantum parks below its horizon without engine interaction
// (recording them as skips) and stops at its first park at or past the
// horizon, or at its first effect park, Wait, or body return. Overrunning
// the horizon to the next park is sound: a park is the only point where an
// influence is observable, and the member has no park between the horizon
// and where it stopped, so a serial run would have delivered any influence
// at that same park. The horizon's min-other-wake term is what makes the
// overrun safe against the cohort itself: any influence a member generates
// — even segments it runs after resuming from an early effect park —
// originates no earlier than its wake, so it lands at or past every other
// member's horizon. The one member that rule cannot protect is a straggler
// whose own wake already lies at or past its horizon (it resumed much later
// than the rest of the cohort): an influence could land before it even
// wakes, where serial dispatch would deliver it at the wake's sync point.
// Such members do not run in the wave at all — their wakes are re-pushed
// untouched and dispatch serially between the replay events.
//
// Bookkeeping is replayed lazily through the main queue: each member's wake
// is re-pushed with its original (time, seq) as a replay event. When a
// replay event dispatches, it consumes the member's recorded actions for
// one segment — buffered Proc.At requests take fresh sequence numbers, the
// following skip or park schedules the next event — exactly as the serial
// dispatch at that (time, seq) would have, and flushes the segment's trace
// shard. Because replays flow through the ordinary queue, they interleave
// bit-exactly with everything else, including members resumed early from
// effect parks. Identical timestamps, identical sequence numbers, identical
// trace streams: bit-identity is by construction, and the equivalence suite
// asserts it end to end.

// WaveObserver lets an instrumentation layer (the trace buffer) route
// per-shard emissions during a wave's concurrent section and splice them
// into the main stream in exact serial order afterwards. WaveBegin/WaveEnd
// bracket the concurrent section (routing on/off); SegmentMark is called
// from process goroutines (one goroutine per shard at a time) and returns
// the shard's monotonic emission position; SegmentFlush — always serial,
// always in-order and contiguous per shard — appends shard emissions
// [from, to) to the main stream.
type WaveObserver interface {
	WaveBegin()
	SegmentMark(shard int) int
	SegmentFlush(shard int, from, to int)
	WaveEnd()
}

// intraState holds the engine's parallel-dispatch configuration and
// per-wave scratch (reused to keep waves low-allocation).
type intraState struct {
	workers int
	obs     WaveObserver
	// active is set for the duration of a wave's concurrent section; it
	// backs the Engine.At assertion that catches any code path scheduling
	// events from inside a pure segment.
	active atomic.Bool

	cohort []*Proc
	next   atomic.Int64
}

// EnableIntra switches the engine to conservative-PDES dispatch with the
// given worker count. A count below 2 leaves the engine serial. The
// observer may be nil; when set it receives wave brackets and segment
// flushes (the trace buffer uses this to keep emission order bit-exact).
// Must be called before Run.
func (e *Engine) EnableIntra(workers int, obs WaveObserver) {
	if e.running {
		panic("sim: EnableIntra while the engine is running")
	}
	if workers < 2 {
		return
	}
	e.intra = &intraState{workers: workers, obs: obs}
}

// IntraEnabled reports whether parallel intra-run dispatch is active.
func (e *Engine) IntraEnabled() bool { return e.intra != nil }

// waveEligible reports whether the queue-head event can join a wave: a
// live pure quantum wake of a parked process whose sync hook would not
// deliver work (no pending interrupt).
func waveEligible(ev event) bool {
	p := ev.proc
	return p != nil && ev.pure && !p.halted && p.state == procParked &&
		p.wakeSeq == ev.wakeSeq && (p.waveReady == nil || p.waveReady())
}

// runWave forms a cohort starting at the (eligible) queue head, runs it
// concurrently, and seeds the replay events that reconstruct serial
// bookkeeping. The engine clock is not touched: the re-pushed wakes carry
// their original (time, seq), so the main loop advances it exactly as
// serial dispatch would.
func (e *Engine) runWave(limit Time) {
	is := e.intra
	cohort := is.cohort[:0]

	// Form the cohort: the maximal run of consecutive eligible pure wakes
	// within the RunUntil limit. Popping in (time, seq) order guarantees
	// every cohort wake precedes the first remaining queued event.
	for {
		head, ok := e.queue.head()
		if !ok || head.at > limit || !waveEligible(head) {
			break
		}
		ev := e.queue.pop()
		p := ev.proc
		p.waveWakeAt = ev.at
		p.waveWakeSeq = ev.seq
		cohort = append(cohort, p)
	}
	is.cohort = cohort
	if len(cohort) == 0 {
		// RunUntil only calls runWave for an eligible head.
		panic("sim: empty wave cohort")
	}

	// Horizon per member: the first remaining queued event bounds every
	// member (it may be, or may transitively spawn, an influence at its
	// face time); each other member bounds p by its own wake plus p's
	// influence floor; and a finite RunUntil limit bounds how far serial
	// dispatch itself would have driven quantum wakes.
	const never = Time(^uint64(0))
	rest := never
	if head, ok := e.queue.head(); ok {
		rest = head.at
	}
	if limit != never && limit+1 < rest {
		rest = limit + 1
	}
	minWake, minWake2 := never, never
	for _, p := range cohort {
		if p.waveWakeAt < minWake {
			minWake, minWake2 = p.waveWakeAt, minWake
		} else if p.waveWakeAt < minWake2 {
			minWake2 = p.waveWakeAt
		}
	}
	for _, p := range cohort {
		other := minWake
		if p.waveWakeAt == minWake {
			other = minWake2 // p itself holds the minimum
		}
		lim := rest
		if other != never && other+p.lookahead < lim {
			lim = other + p.lookahead
		}
		p.waveLimit = lim
	}

	// A member whose own wake lies at or past its horizon cannot safely run
	// even one segment: an influence another member schedules during replay
	// can land before that wake, and serial dispatch would deliver it via
	// the sync hook exactly there. Re-push such members' wakes untouched —
	// they dispatch serially, interleaved with the replay. Their wakes still
	// bound the members that do run: a wake is a lower bound on any
	// influence a member generates however it is dispatched. The first
	// member is always safe — it is the queue head, so its live resume
	// coincides with its serial dispatch — which also guarantees the wave
	// makes progress.
	run := cohort[:0]
	for i, p := range cohort {
		if i == 0 || p.waveWakeAt < p.waveLimit {
			run = append(run, p)
			continue
		}
		e.queue.push(event{at: p.waveWakeAt, seq: p.waveWakeSeq, proc: p,
			wakeSeq: p.wakeSeq, pure: true}, e.now)
	}
	cohort = run
	is.cohort = cohort

	// Concurrent section: run each member's segment train on the worker
	// pool. The handshake channels give the usual happens-before edges, so
	// everything a proc wrote before parking is visible to the engine.
	obs := is.obs
	if obs != nil {
		obs.WaveBegin()
	}
	is.active.Store(true)
	workers := is.workers
	if workers > len(cohort) {
		workers = len(cohort)
	}
	is.next.Store(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(is.next.Add(1)) - 1
				if i >= len(cohort) {
					return
				}
				e.runSegmentTrain(cohort[i])
			}
		}()
	}
	wg.Wait()
	is.active.Store(false)
	if obs != nil {
		obs.WaveEnd()
	}

	// Seed the replay: re-push every cohort wake with its original
	// (time, seq). The main loop dispatches them — interleaved with any
	// events the wave's parks produce — in exact serial order.
	for _, p := range cohort {
		p.waveActIdx = 0
		p.wavePrevMark = p.waveStartMark
		q := p
		e.queue.push(event{at: q.waveWakeAt, seq: q.waveWakeSeq, fn: func() { e.replayStep(q) }}, e.now)
	}
}

// runSegmentTrain resumes one cohort member and lets it run — through
// skipped quantum parks below its horizon — until it really parks, waits
// or finishes. Runs on a worker goroutine.
func (e *Engine) runSegmentTrain(p *Proc) {
	p.waveActs = p.waveActs[:0]
	p.waveStartMark = 0
	obs := e.intra.obs
	if obs != nil && p.shard >= 0 {
		p.waveStartMark = obs.SegmentMark(p.shard)
	}
	p.waveMode = true
	p.state = procRunning
	p.resume <- struct{}{}
	<-p.yield
	p.waveMode = false
	if p.state == procDone {
		mark := 0
		if obs != nil && p.shard >= 0 {
			mark = obs.SegmentMark(p.shard)
		}
		p.waveActs = append(p.waveActs, waveAct{kind: actDone, at: p.local, mark: mark})
	}
}

// replayStep reconstructs the serial bookkeeping of one wave segment. It
// runs as an ordinary queue event at exactly the (time, seq) the serial
// engine would have dispatched the segment's wake, so the sequence numbers
// it consumes — buffered Proc.At requests first, then the segment-ending
// skip or park — are the serial ones, and the segment's trace emissions
// splice into the main stream at the serial position.
func (e *Engine) replayStep(p *Proc) {
	obs := e.intra.obs
	for {
		if p.waveActIdx >= len(p.waveActs) {
			panic(fmt.Sprintf("sim: wave segment of proc %s at %d has no terminating park",
				p.name, e.now))
		}
		a := p.waveActs[p.waveActIdx]
		p.waveActIdx++
		if a.kind == actAt {
			if a.at < e.now {
				panic(fmt.Sprintf("sim: event scheduled at %d before now %d by proc %s",
					a.at, e.now, p.name))
			}
			e.seq++
			e.queue.push(event{at: a.at, seq: e.seq, fn: a.fn}, e.now)
			continue
		}
		// Segment boundary: flush its emissions, then schedule what the
		// serial segment's park would have.
		if obs != nil && p.shard >= 0 {
			obs.SegmentFlush(p.shard, p.wavePrevMark, a.mark)
			p.wavePrevMark = a.mark
		}
		switch a.kind {
		case actSkip:
			e.seq++
			e.queue.push(event{at: a.at, seq: e.seq, fn: func() { e.replayStep(p) }}, e.now)
		case actParkPure, actParkEffect:
			e.seq++
			e.queue.push(event{at: a.at, seq: e.seq, proc: p,
				wakeSeq: p.wakeSeq, pure: a.kind == actParkPure}, e.now)
		case actWait, actDone:
			// No wake event: an indefinite Wait needs an external Wake, a
			// finished body never runs again.
		case actResume:
			// In-step effect sync: serially its effects applied inline during
			// this very dispatch, so resume the proc live — it consumes no
			// sequence number and continues serially from here.
			p.dispatch()
		}
		return
	}
}
