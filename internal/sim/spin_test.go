package sim

import (
	"fmt"
	"strings"
	"testing"
)

// --- Spin against the loop it is defined as ---
//
// Spin promises the literal loop in its doc comment, bit for bit, and differs
// only in which goroutine runs the steps. Each scenario below runs twice, once
// per mode, and must leave the same record log (every step, callback and hook
// notes the engine clock, the sequence counter and its local clock), the same
// final clock and sequence counter, and the same engine counters, except that
// wakes the engine stepped in place replace switches and self-wakes one for
// one.

// spinMode runs a step loop one way or the other.
type spinMode func(p *Proc, step func() (Duration, bool, bool))

// literalSpin is the loop Spin is defined as.
func literalSpin(p *Proc, step func() (Duration, bool, bool)) {
	for {
		d, sync, done := step()
		if done {
			return
		}
		if d != 0 {
			p.Advance(d)
		}
		if sync {
			p.Sync()
		}
	}
}

func engineSpin(p *Proc, step func() (Duration, bool, bool)) { p.Spin(step) }

// spinOutcome is what one run of a scenario observably did.
type spinOutcome struct {
	log []string
	end Time
	seq uint64
	st  Stats
}

// runSpinScenario builds and drives one scenario (build runs the engine
// itself), notes every proc's final clock, and shuts the engine down.
func runSpinScenario(spin spinMode, build func(e *Engine, rec *recorder, spin spinMode)) spinOutcome {
	e := NewEngine()
	rec := &recorder{}
	build(e, rec, spin)
	for _, p := range e.procs {
		rec.note("final %s local=%d halted=%v", p.name, p.local, p.halted)
	}
	e.Shutdown()
	return spinOutcome{log: rec.events, end: e.now, seq: e.seq, st: e.stats}
}

// assertSpinMatchesLoop runs build in both modes and compares them; it
// returns the Spin run's outcome for scenario-specific checks.
func assertSpinMatchesLoop(t *testing.T, build func(e *Engine, rec *recorder, spin spinMode)) spinOutcome {
	t.Helper()
	return assertSameRun(t, runSpinScenario(literalSpin, build), runSpinScenario(engineSpin, build))
}

// assertSameRun compares a run of the literal form with a run through Spin
// and returns the latter.
func assertSameRun(t *testing.T, loop, spin spinOutcome) spinOutcome {
	t.Helper()
	for i := 0; i < len(loop.log) || i < len(spin.log); i++ {
		var l, s string
		if i < len(loop.log) {
			l = loop.log[i]
		}
		if i < len(spin.log) {
			s = spin.log[i]
		}
		if l != s {
			t.Fatalf("record %d: loop %q, Spin %q", i, l, s)
		}
	}
	if loop.end != spin.end || loop.seq != spin.seq {
		t.Fatalf("end/seq: loop %d/%d, Spin %d/%d", loop.end, loop.seq, spin.end, spin.seq)
	}
	ls, ss := loop.st, spin.st
	if ls.InPlaceSteps != 0 {
		t.Fatalf("the literal loop stepped in place: %+v", ls)
	}
	if ss.Events != ls.Events || ss.ClosureEvents != ls.ClosureEvents ||
		ss.RunThroughs != ls.RunThroughs || ss.SyncInStep != ls.SyncInStep ||
		ss.ProcSwitches+ss.SelfWakes+ss.InPlaceSteps != ls.ProcSwitches+ls.SelfWakes {
		t.Fatalf("counters:\nloop %+v\nSpin %+v", ls, ss)
	}
	if ss.InPlaceSteps == 0 {
		t.Fatalf("Spin never stepped in place: %+v", ss)
	}
	return spin
}

// miniTAS is a test-and-set register in miniature, probed the way the chip
// probes one: sync to issue, advance by the latency and sync again, then
// test-and-set, backing off on a loss.
type miniTAS struct {
	held bool
}

// acquire returns a step that takes the register for p.
func (r *miniTAS) acquire(p *Proc, rec *recorder, lat, backoff Duration) func() (Duration, bool, bool) {
	phase := 0
	return func() (Duration, bool, bool) {
		switch phase {
		case 0:
			phase = 1
			return 0, true, false
		case 1:
			phase = 2
			return lat, true, false
		}
		phase = 0
		rec.note("%s try now=%d seq=%d local=%d held=%v", p.name, p.eng.now, p.eng.seq, p.local, r.held)
		if !r.held {
			r.held = true
			return 0, false, true
		}
		return backoff, false, false
	}
}

// lockWorker takes r rounds times, holding it for hold each time.
func lockWorker(r *miniTAS, rec *recorder, spin spinMode, quantum, lat, backoff, hold Duration, rounds int) func(*Proc) {
	return func(p *Proc) {
		p.SetQuantum(quantum)
		for k := 0; k < rounds; k++ {
			spin(p, r.acquire(p, rec, lat, backoff))
			rec.note("%s holds k=%d now=%d seq=%d", p.name, k, p.eng.now, p.eng.seq)
			p.Advance(hold)
			p.Sync()
			r.held = false
			p.Advance(hold / 3)
		}
	}
}

// TestSpinMatchesLoop: every way a Spin loop can park, run through, hand the
// baton back or be cut short gives what the literal loop gives.
func TestSpinMatchesLoop(t *testing.T) {
	t.Run("quantum crossing", func(t *testing.T) {
		// The backoff exceeds the quantum, so the interpreter's own
		// quantum rule parks the loop in its Advance.
		assertSpinMatchesLoop(t, func(e *Engine, rec *recorder, spin spinMode) {
			r := &miniTAS{}
			for i := 0; i < 5; i++ {
				e.NewProc(fmt.Sprintf("w%d", i), Time(7*i),
					lockWorker(r, rec, spin, 100, Duration(20+3*i), 250, Duration(400+90*i), 6))
			}
			e.Run()
		})
	})
	t.Run("run-through", func(t *testing.T) {
		// A lone spinner behind a sparse ticker: most of its syncs are
		// strictly first and run through, in place as on the goroutine.
		out := assertSpinMatchesLoop(t, func(e *Engine, rec *recorder, spin spinMode) {
			r := &miniTAS{held: true}
			var tick func()
			tick = func() {
				rec.note("tick now=%d seq=%d", e.now, e.seq)
				if e.now < 6000 {
					e.After(500, tick)
				}
			}
			e.At(0, tick)
			e.At(4321, func() { r.held = false; rec.note("free now=%d", e.now) })
			e.NewProc("s", 0, lockWorker(r, rec, spin, 0, 40, 45, 100, 1))
			e.Run()
		})
		if out.st.RunThroughs == 0 {
			t.Fatalf("no run-through: %+v", out.st)
		}
	})
	t.Run("in-step sync", func(t *testing.T) {
		// A second sync right after the first finds the clocks in step.
		out := assertSpinMatchesLoop(t, func(e *Engine, rec *recorder, spin spinMode) {
			r := &miniTAS{}
			for i := 0; i < 3; i++ {
				i := i
				e.NewProc(fmt.Sprintf("d%d", i), 0, func(p *Proc) {
					for k := 0; k < 4; k++ {
						inner := r.acquire(p, rec, 15, Duration(60+10*i))
						again := false
						spin(p, func() (Duration, bool, bool) {
							if again {
								again = false
								return 0, true, false
							}
							d, sync, done := inner()
							again = sync && d != 0
							return d, sync, done
						})
						p.Advance(300)
						p.Sync()
						r.held = false
					}
				})
			}
			e.Run()
		})
		if out.st.SyncInStep == 0 {
			t.Fatalf("no in-step sync: %+v", out.st)
		}
	})
	t.Run("hook turns non-idle", func(t *testing.T) {
		// Callbacks post work for the spinner's hook mid-spin. The proc must
		// get the baton to run it; the hook parks in an ordinary Sync and
		// spins on a register of its own inside the outer spin.
		out := assertSpinMatchesLoop(t, func(e *Engine, rec *recorder, spin spinMode) {
			r, inner := &miniTAS{}, &miniTAS{}
			pending, hooks, inHook := 0, 0, false
			e.NewProc("holder", 0, lockWorker(r, rec, spin, 100, 25, 70, 2500, 3))
			s := e.NewProc("s", 5, func(p *Proc) {
				p.SetQuantum(100)
				for k := 0; k < 3; k++ {
					spin(p, r.acquire(p, rec, 25, 90))
					p.Advance(200)
					p.Sync()
					r.held = false
				}
			})
			s.SetSyncHook(func() {
				if pending == 0 || inHook {
					return
				}
				pending--
				hooks++
				inHook = true
				defer func() { inHook = false }()
				rec.note("hook %d now=%d seq=%d local=%d", hooks, e.now, e.seq, s.local)
				s.Advance(150)
				s.Sync()
				if hooks%2 == 0 {
					spin(s, inner.acquire(s, rec, 10, 30))
					inner.held = false
				}
			}, func() bool { return pending == 0 || inHook })
			for _, at := range []Time{900, 1700, 1701, 3300, 4100, 6000} {
				e.At(at, func() { pending++; rec.note("post now=%d", e.now) })
			}
			e.Run()
			if hooks < 3 {
				t.Errorf("the hook ran %d times", hooks)
			}
		})
		if out.st.ProcSwitches == 0 {
			t.Fatalf("the hook never got the baton: %+v", out.st)
		}
	})
	t.Run("halt and shutdown while spinning", func(t *testing.T) {
		// The holder is halted holding the register, so one spinner is
		// halted mid-spin and the other spins until RunUntil's limit; then
		// Shutdown unwinds both.
		assertSpinMatchesLoop(t, func(e *Engine, rec *recorder, spin spinMode) {
			r := &miniTAS{}
			holder := e.NewProc("holder", 0, lockWorker(r, rec, spin, 100, 20, 50, 9000, 2))
			victim := e.NewProc("victim", 10, lockWorker(r, rec, spin, 100, 20, 50, 100, 2))
			e.NewProc("left", 20, lockWorker(r, rec, spin, 100, 30, 80, 100, 2))
			e.At(3000, func() { victim.Halt(); rec.note("halt victim now=%d", e.now) })
			e.At(5000, func() { holder.Halt(); rec.note("halt holder now=%d", e.now) })
			rec.note("until %d", e.RunUntil(40000))
		})
	})
	t.Run("limit and stop", func(t *testing.T) {
		// RunUntil stops mid-spin, a step calls Stop, a callback calls Stop,
		// and the run is resumed after each.
		assertSpinMatchesLoop(t, func(e *Engine, rec *recorder, spin spinMode) {
			r := &miniTAS{}
			tries := 0
			for i := 0; i < 3; i++ {
				i := i
				e.NewProc(fmt.Sprintf("l%d", i), 0, func(p *Proc) {
					p.SetQuantum(120)
					for k := 0; k < 4; k++ {
						inner := r.acquire(p, rec, 20, 65)
						spin(p, func() (Duration, bool, bool) {
							if tries++; tries == 23 {
								e.Stop()
							}
							return inner()
						})
						p.Advance(700)
						p.Sync()
						r.held = false
					}
				})
			}
			e.At(4000, e.Stop)
			rec.note("until %d pending=%d", e.RunUntil(1500), e.queue.len())
			for i := 0; i < 2; i++ {
				rec.note("stopped at %d pending=%d", e.Run(), e.queue.len())
				e.stopped = false
			}
			rec.note("end %d", e.Run())
		})
	})
	// A step that panics while the engine runs it in place surfaces as a
	// *ProcPanic naming the spinning proc, like the literal loop's body
	// panic, whether another proc's goroutine or RunUntil's caller carried it.
	for _, carrier := range []string{"proc", "caller"} {
		carrier := carrier
		t.Run("panic in step, carried by "+carrier, func(t *testing.T) {
			run := func(spin spinMode) *ProcPanic {
				e := NewEngine()
				tries := 0
				e.NewProc("spinner", 0, func(p *Proc) {
					spin(p, func() (Duration, bool, bool) {
						if tries++; tries == 9 {
							panic("probe")
						}
						return 100, true, false
					})
				})
				if carrier == "proc" {
					e.NewProc("carrier", 50, func(p *Proc) {
						for {
							p.Advance(100)
							p.Sync()
						}
					})
				}
				if carrier == "caller" {
					// Park the spinner past the limit so the next Run pops
					// its wake on this goroutine.
					e.RunUntil(350)
				}
				defer e.Shutdown()
				var pp *ProcPanic
				func() {
					defer func() { pp, _ = recover().(*ProcPanic) }()
					e.Run()
				}()
				if pp == nil {
					t.Fatal("no *ProcPanic")
				}
				return pp
			}
			loop, spin := run(literalSpin), run(engineSpin)
			for _, pp := range []*ProcPanic{loop, spin} {
				if pp.Proc != "spinner" || pp.Value != "probe" {
					t.Fatalf("got %q / %v, want spinner / probe", pp.Proc, pp.Value)
				}
			}
			if !strings.Contains(string(spin.Stack), "stepInPlace") {
				t.Fatalf("the step did not run in place:\n%s", spin.Stack)
			}
		})
	}
}

// TestChargeMatchesLiteral: Proc.Charge gives what Sync, Advance(d), Sync
// gives, whether its first Sync parks, runs through or finds the clocks in
// step, whether the transit crosses the quantum, and when the hook gets work
// mid-charge and charges inside the charge.
func TestChargeMatchesLiteral(t *testing.T) {
	literal := func(p *Proc, d Duration) {
		p.Sync()
		p.Advance(d)
		p.Sync()
	}
	charged := func(p *Proc, d Duration) { p.Charge(d) }
	build := func(charge func(*Proc, Duration)) func(*Engine, *recorder, spinMode) {
		return func(e *Engine, rec *recorder, _ spinMode) {
			for i := 0; i < 4; i++ {
				i := i
				e.NewProc(fmt.Sprintf("c%d", i), Time(11*i), func(p *Proc) {
					p.SetQuantum(Duration(150 * (i % 2)))
					for k := 0; k < 8; k++ {
						p.Advance(Duration(40 + 70*((i+k)%4)))
						charge(p, Duration(30+60*((i*3+k)%5)))
						rec.note("%s charged k=%d now=%d seq=%d local=%d", p.name, k, e.now, e.seq, p.local)
					}
				})
			}
			pending, inHook := 0, false
			h := e.NewProc("h", 3, func(p *Proc) {
				for k := 0; k < 10; k++ {
					p.Advance(35)
					charge(p, 90)
					rec.note("h charged k=%d now=%d seq=%d local=%d", k, e.now, e.seq, p.local)
				}
				for k := 0; k < 5; k++ { // alone by now: the syncs run through
					charge(p, 25)
				}
			})
			h.SetSyncHook(func() {
				if pending == 0 || inHook {
					return
				}
				pending--
				inHook = true
				defer func() { inHook = false }()
				rec.note("hook now=%d seq=%d local=%d", e.now, e.seq, h.local)
				h.Advance(60)
				charge(h, 45)
			}, func() bool { return pending == 0 || inHook })
			for _, at := range []Time{150, 400, 401, 900} {
				e.At(at, func() { pending++; rec.note("post now=%d", e.now) })
			}
			e.Run()
		}
	}
	out := assertSameRun(t, runSpinScenario(nil, build(literal)), runSpinScenario(nil, build(charged)))
	if out.st.RunThroughs == 0 || out.st.SyncInStep == 0 {
		t.Fatalf("no charge ran through or found the clocks in step: %+v", out.st)
	}
}
