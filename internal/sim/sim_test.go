package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockMHz(t *testing.T) {
	c := MHz(800)
	if c.PeriodPS != 1250 {
		t.Fatalf("800 MHz period = %d ps, want 1250", c.PeriodPS)
	}
	if got := c.Cycles(4); got != 5000 {
		t.Fatalf("4 cycles @800MHz = %d ps, want 5000", got)
	}
	c533 := MHz(533)
	if c533.PeriodPS != 1876 {
		t.Fatalf("533 MHz period = %d ps, want 1876", c533.PeriodPS)
	}
}

func TestClockRoundTrip(t *testing.T) {
	c := MHz(533)
	if n := c.ToCycles(c.Cycles(12345)); n != 12345 {
		t.Fatalf("cycle round trip = %d, want 12345", n)
	}
}

func TestMicroseconds(t *testing.T) {
	d := Microseconds(2.5)
	if d != 2_500_000 {
		t.Fatalf("2.5us = %d ps, want 2500000", d)
	}
	if got := Time(2_500_000).Microseconds(); got != 2.5 {
		t.Fatalf("2500000 ps = %v us, want 2.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(100, func() { order = append(order, 1) })
	e.At(50, func() { order = append(order, 0) })
	e.At(100, func() { order = append(order, 2) }) // same time: insertion order
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 100 {
		t.Fatalf("final time = %d, want 100", e.Now())
	}
}

func TestEventInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.queue.len() != 1 {
		t.Fatalf("pending = %d, want 1", e.queue.len())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after Run, want 3", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt dispatch)", fired)
	}
}

func TestProcAdvanceAndSync(t *testing.T) {
	e := NewEngine()
	var atSync Time
	e.NewProc("p", 0, func(p *Proc) {
		p.Advance(1000)
		if p.LocalTime() != 1000 {
			t.Errorf("local = %d, want 1000", p.LocalTime())
		}
		if e.Now() != 0 {
			t.Errorf("engine advanced with local clock: now = %d", e.Now())
		}
		p.Sync()
		atSync = e.Now()
	})
	e.Run()
	if atSync != 1000 {
		t.Fatalf("engine time at sync = %d, want 1000", atSync)
	}
}

func TestProcQuantumForcesSync(t *testing.T) {
	e := NewEngine()
	maxLookahead := Duration(0)
	e.NewProc("p", 0, func(p *Proc) {
		p.SetQuantum(100)
		for i := 0; i < 50; i++ {
			p.Advance(30)
			if la := p.local - p.eng.now; p.local > p.eng.now && la > maxLookahead {
				maxLookahead = la
			}
		}
	})
	e.Run()
	if maxLookahead > 130 {
		t.Fatalf("lookahead reached %d, quantum 100 not enforced", maxLookahead)
	}
}

func TestTwoProcsInterleaveInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	worker := func(name string, step Duration) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(step)
				p.Sync()
				order = append(order, name)
			}
		}
	}
	e.NewProc("a", 0, worker("a", 100))
	e.NewProc("b", 0, worker("b", 150))
	e.Run()
	// a syncs at 100,200,300; b at 150,300,450. At t=300 a was scheduled
	// first (its Sync event for 300 is enqueued at t=200 < b's enqueued at
	// 150... both enqueue their t=300 events at different times; a's Sync to
	// 300 is scheduled at engine time 200, b's at engine time 150, so b's
	// has the lower sequence number and runs first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitWake(t *testing.T) {
	e := NewEngine()
	var got Time
	p := e.NewProc("sleeper", 0, func(p *Proc) {
		p.Wait()
		got = e.Now()
	})
	e.At(0, func() { p.Wake(777) })
	e.Run()
	if got != 777 {
		t.Fatalf("woke at %d, want 777", got)
	}
}

func TestHaltStopsProcForever(t *testing.T) {
	e := NewEngine()
	steps := 0
	p := e.NewProc("victim", 0, func(p *Proc) {
		for {
			steps++
			p.Advance(100)
			p.Sync()
		}
	})
	e.At(1000, func() { p.Halt() })
	e.Run()
	if !p.halted {
		t.Fatal("proc not marked halted")
	}
	if p.state == procDone {
		t.Fatal("a halted proc must not count as done")
	}
	// The loop syncs at t=100..1000; the halt at t=1000 runs before the
	// proc's own sync event at the same timestamp resumes it, so the body
	// stops after the 10 steps already taken and never runs again.
	if steps != 10 {
		t.Fatalf("body took %d steps, want 10", steps)
	}
	// Waking a halted proc must be ignored, not resume the body.
	e.At(2000, func() { p.Wake(2000) })
	e.RunUntil(3000)
	if steps != 10 {
		t.Fatalf("halted proc ran again: %d steps", steps)
	}
	e.Shutdown()
}

func TestHaltFinishedProcIsNoOp(t *testing.T) {
	e := NewEngine()
	p := e.NewProc("done", 0, func(p *Proc) { p.Advance(10) })
	e.Run()
	p.Halt()
	if p.halted {
		t.Fatal("halting a finished proc must be a no-op")
	}
	if p.state != procDone {
		t.Fatal("proc should be done")
	}
}

func TestStaleWakeIgnored(t *testing.T) {
	e := NewEngine()
	wakes := 0
	p := e.NewProc("sleeper", 0, func(p *Proc) {
		p.Wait()
		wakes++
		p.Advance(10)
		p.Sync() // parked again; the duplicate wake event must not disturb it
		p.Wait()
		wakes++
	})
	e.At(0, func() {
		p.Wake(100)
		p.Wake(100) // duplicate: second must be ignored (stale wakeSeq)
	})
	e.At(500, func() { p.Wake(500) })
	e.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
}

func TestSignalCheckThenWait(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	ready := false
	var sawAt Time
	e.NewProc("consumer", 0, func(p *Proc) {
		for !ready {
			sig.Wait(p)
		}
		sawAt = e.Now()
	})
	e.NewProc("producer", 0, func(p *Proc) {
		p.Advance(5000)
		p.Sync()
		ready = true
		sig.Fire(p.LocalTime())
	})
	e.Run()
	if sawAt != 5000 {
		t.Fatalf("consumer saw condition at %d, want 5000", sawAt)
	}
	if n := len(sig.waiters); n != 0 {
		t.Fatalf("waiters = %d, want 0", n)
	}
}

func TestSignalConditionAlreadyTrue(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	ready := true
	done := false
	e.NewProc("consumer", 10, func(p *Proc) {
		for !ready {
			sig.Wait(p)
		}
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("consumer blocked although condition already true")
	}
}

func TestSignalMultipleWaitersWakeInOrder(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	ready := false
	var order []string
	for _, name := range []string{"w0", "w1", "w2"} {
		name := name
		e.NewProc(name, 0, func(p *Proc) {
			for !ready {
				sig.Wait(p)
			}
			order = append(order, name)
		})
	}
	e.At(100, func() { ready = true; sig.Fire(100) })
	e.Run()
	want := []string{"w0", "w1", "w2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

// TestSignalFireAllocatesNothing: once a signal has fired, a Fire and the
// dispatch of its event and the waiter's wake allocate nothing.
func TestSignalFireAllocatesNothing(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	e.NewProc("waiter", 0, func(p *Proc) {
		for {
			sig.Wait(p)
		}
	})
	e.Run()
	wakes := e.Stats().ProcSwitches
	allocs := testing.AllocsPerRun(100, func() {
		sig.Fire(e.Now())
		e.Run()
	})
	wakes = e.Stats().ProcSwitches - wakes
	e.Shutdown()
	if wakes != 101 {
		t.Fatalf("waiter resumed %d times over 101 fires", wakes)
	}
	if allocs != 0 {
		t.Fatalf("Fire plus dispatch allocates %v times, want 0", allocs)
	}
}

// TestSignalDeadlineAllocatesNothing: once warm, arming a deadline and
// running it to the waiter's wake allocates nothing, and each deadline is
// three events (deadline, fire, wake).
func TestSignalDeadlineAllocatesNothing(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	e.NewProc("waiter", 0, func(p *Proc) {
		for {
			sig.Wait(p)
		}
	})
	e.Run()
	before := e.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		sig.Deadline(e.Now() + 1000)
		e.Run()
	})
	after := e.Stats()
	e.Shutdown()
	if n := after.ProcSwitches - before.ProcSwitches; n != 101 {
		t.Fatalf("waiter resumed %d times over 101 deadlines", n)
	}
	if n := after.Events - before.Events; n != 3*101 {
		t.Fatalf("101 deadlines popped %d events, want %d", n, 3*101)
	}
	if allocs != 0 {
		t.Fatalf("Deadline plus dispatch allocates %v times, want 0", allocs)
	}
}

// TestSignalDeadlineMatchesFireCallback: Deadline(at) schedules exactly what
// a callback calling Fire(at) at time at schedules — same wake times, same
// sequence numbers, same engine counters.
func TestSignalDeadlineMatchesFireCallback(t *testing.T) {
	run := func(arm func(sig *Signal, at Time)) (Time, uint64, Stats, []Time) {
		e := NewEngine()
		sig := NewSignal(e)
		var woke []Time
		e.NewProc("waiter", 0, func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Advance(Time(100 + 37*i))
				arm(sig, p.LocalTime()+Time(500+i%3*250))
				seq := sig.Seq()
				p.Advance(90)
				p.Sync()
				sig.WaitSeq(p, seq)
				woke = append(woke, p.LocalTime())
			}
		})
		e.NewProc("firer", 0, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Advance(Time(700 + 113*i))
				p.Sync()
				sig.Fire(p.LocalTime())
			}
		})
		end := e.Run()
		e.Shutdown()
		return end, e.seq, e.Stats(), woke
	}
	endA, seqA, stA, wokeA := run(func(sig *Signal, at Time) {
		sig.eng.At(at, func() { sig.Fire(at) })
	})
	endB, seqB, stB, wokeB := run(func(sig *Signal, at Time) { sig.Deadline(at) })
	if endA != endB || seqA != seqB || stA != stB || fmt.Sprint(wokeA) != fmt.Sprint(wokeB) {
		t.Fatalf("Deadline diverged from a Fire callback:\nend %d / %d seq %d / %d\nstats %+v\n      %+v\nwakes %v\n      %v",
			endA, endB, seqA, seqB, stA, stB, wokeA, wokeB)
	}
}

func TestShutdownUnblocksParkedProcs(t *testing.T) {
	e := NewEngine()
	p := e.NewProc("stuck", 0, func(p *Proc) {
		p.Wait() // never woken
		t.Error("stuck proc resumed unexpectedly")
	})
	e.Run()
	e.Shutdown()
	if p.state != procDone {
		t.Fatal("proc not terminated by Shutdown")
	}
}

func TestSyncHookRunsAfterPark(t *testing.T) {
	e := NewEngine()
	hooks := 0
	e.NewProc("p", 0, func(p *Proc) {
		p.SetSyncHook(func() { hooks++ }, nil)
		p.Advance(100)
		p.Sync()
		p.Advance(100)
		p.Sync()
	})
	e.Run()
	if hooks != 2 {
		t.Fatalf("hook ran %d times, want 2", hooks)
	}
}

// TestDeterminism runs a mildly complex proc interaction twice and requires
// identical event timing — the core guarantee everything else rests on.
func TestDeterminism(t *testing.T) {
	runOnce := func() []Time {
		var stamps []Time
		e := NewEngine()
		sig := NewSignal(e)
		mail := 0
		for i := 0; i < 8; i++ {
			step := Duration(100 + 37*i)
			e.NewProc("p", 0, func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Advance(step)
					p.Sync()
					mail++
					sig.Fire(p.LocalTime())
					stamps = append(stamps, e.Now())
				}
			})
		}
		e.NewProc("watcher", 0, func(p *Proc) {
			for mail < 40 {
				sig.Wait(p)
			}
			stamps = append(stamps, e.Now())
		})
		e.Run()
		e.Shutdown()
		return stamps
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any sequence of positive advances, the engine clock after a
// final Sync equals the sum of the advances (local clocks never drift).
func TestAdvanceSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		e := NewEngine()
		var want Time
		var got Time
		e.NewProc("p", 0, func(p *Proc) {
			for _, s := range steps {
				d := Duration(s) + 1
				want += d
				p.Advance(d)
			}
			p.Sync()
			got = e.Now()
		})
		e.Run()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// scheduling order, with ties broken by insertion sequence.
func TestHeapOrderProperty(t *testing.T) {
	f := func(times []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, at := range times {
			at := Time(at)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- Serial golden scenarios ---
//
// The engine has one dispatch order, (time, seq), and nothing to compare it
// against but itself. Each scenario below therefore pins three things to
// constants: the final clock, the final sequence counter and an FNV-1a hash
// of every observation made at a globally ordered point. A change to the
// engine that moves any of them changed simulated behaviour. The constants
// come from the serial run at the last commit that still had a second
// dispatch engine agreeing with it. The fourth pin, the engine's own
// counters, is host-side: it says how that outcome was produced (how many
// wakes needed a goroutine switch, how many Syncs ran through), is as
// reproducible as the rest, and moves only when the hand-off does. A failure
// prints the observed outcome in the form of the literal, and the record
// log behind the hash.

// recorder collects observation strings at globally ordered points (post-
// Sync effect context, engine events).
type recorder struct {
	events []string
}

func (r *recorder) note(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

// golden is the outcome of one scenario run.
type golden struct {
	end  Time   // final engine clock
	seq  uint64 // final sequence counter: one per event ever scheduled
	hash uint64 // FNV-1a over the record log, one record per line
	st   Stats  // the engine's counters
}

func (g golden) String() string {
	return fmt.Sprintf("golden{end: %d, seq: %d, hash: %#x, st: Stats{%d, %d, %d, %d, %d, %d, %d}}", g.end, g.seq, g.hash,
		g.st.Events, g.st.ClosureEvents, g.st.ProcSwitches, g.st.SelfWakes, g.st.RunThroughs, g.st.SyncInStep, g.st.InPlaceSteps)
}

// runScenario builds one scenario on a fresh engine, runs it to completion
// and returns its outcome and record log. build may itself drive the engine
// part of the way (the RunUntil scenario does).
func runScenario(build func(e *Engine, rec *recorder)) (golden, []string) {
	e := NewEngine()
	rec := &recorder{}
	build(e, rec)
	end := e.Run()
	e.Shutdown()
	h := fnv.New64a()
	for _, s := range rec.events {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return golden{end: end, seq: e.seq, hash: h.Sum64(), st: e.Stats()}, rec.events
}

// assertGolden runs the scenario twice and requires both runs to equal want.
func assertGolden(t *testing.T, want golden, build func(e *Engine, rec *recorder)) {
	t.Helper()
	first, log := runScenario(build)
	if second, _ := runScenario(build); first != second {
		t.Fatalf("same scenario, two runs: %v then %v", first, second)
	}
	if first != want {
		t.Fatalf("got %v, want %v; record log:\n%s", first, want, strings.Join(log, "\n"))
	}
}

// TestGoldenUniformCompute: pure compute with periodic effect syncs — all
// cores crunching between barriers.
func TestGoldenUniformCompute(t *testing.T) {
	assertGolden(t, golden{end: 13800, seq: 404, hash: 0x63ae550ae1612a25, st: Stats{374, 0, 374, 0, 30, 11, 0}}, func(e *Engine, rec *recorder) {
		for i := 0; i < 6; i++ {
			i := i
			step := Duration(30 + 17*i)
			e.NewProc(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
				p.SetQuantum(100)
				for k := 0; k < 120; k++ {
					p.Advance(step)
					if k%13 == 12 {
						p.Sync() // effect park: globally ordered
						rec.note("p%d effect k=%d now=%d local=%d", i, k, e.Now(), p.LocalTime())
					}
				}
				p.Sync()
				rec.note("p%d done now=%d", i, e.Now())
			})
		}
	})
}

// TestGoldenProducersConsumer mixes pure compute with signal traffic and an
// indefinitely waiting consumer.
func TestGoldenProducersConsumer(t *testing.T) {
	assertGolden(t, golden{end: 5280, seq: 183, hash: 0x36180b8f865fc3d0, st: Stats{176, 20, 156, 0, 7, 12, 0}}, func(e *Engine, rec *recorder) {
		sig := NewSignal(e)
		mail := 0
		for i := 0; i < 5; i++ {
			i := i
			step := Duration(40 + 23*i)
			e.NewProc(fmt.Sprintf("prod%d", i), 0, func(p *Proc) {
				p.SetQuantum(90)
				for k := 0; k < 40; k++ {
					p.Advance(step)
					if k%9 == 8 {
						p.Sync()
						mail++
						sig.Fire(p.LocalTime())
						rec.note("prod%d fire mail=%d now=%d", i, mail, e.Now())
					}
				}
			})
		}
		e.NewProc("consumer", 0, func(p *Proc) {
			for mail < 20 {
				sig.Wait(p)
			}
			rec.note("consumer saw %d at %d", mail, e.Now())
		})
	})
}

// TestGoldenHaltMidRun crash-halts one proc from an engine event while the
// rest keep computing; the halt must land between the same two parks.
func TestGoldenHaltMidRun(t *testing.T) {
	assertGolden(t, golden{end: 3480, seq: 87, hash: 0x16496743a0d2edc3, st: Stats{75, 1, 73, 0, 12, 4, 0}}, func(e *Engine, rec *recorder) {
		var victim *Proc
		for i := 0; i < 4; i++ {
			i := i
			pp := e.NewProc(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
				p.SetQuantum(80)
				for k := 0; k < 60; k++ {
					p.Advance(Duration(25 + 11*i))
					if k%15 == 14 {
						p.Sync()
						rec.note("w%d effect k=%d now=%d", i, k, e.Now())
					}
				}
			})
			if i == 2 {
				victim = pp
			}
		}
		e.At(1200, func() {
			victim.Halt()
			rec.note("halt at %d", e.Now())
		})
	})
}

// TestGoldenCallbackFromProcContext schedules engine callbacks from a proc
// that is running ahead of the engine clock (the WaitFor/WaitUntil deadline
// pattern); each must take its sequence number at the request, not at the
// proc's next park.
func TestGoldenCallbackFromProcContext(t *testing.T) {
	assertGolden(t, golden{end: 3700, seq: 104, hash: 0x7b0ab3aa9ec04e0f, st: Stats{101, 16, 83, 2, 3, 2, 0}}, func(e *Engine, rec *recorder) {
		for i := 0; i < 4; i++ {
			i := i
			e.NewProc(fmt.Sprintf("q%d", i), 0, func(p *Proc) {
				p.SetQuantum(100)
				for k := 0; k < 50; k++ {
					p.Advance(Duration(35 + 13*i))
					if k%11 == 7 {
						at := p.LocalTime() + 500
						k := k
						e.At(at, func() {
							rec.note("q%d deadline k=%d fires now=%d", i, k, e.Now())
						})
					}
				}
				p.Sync()
				rec.note("q%d done now=%d", i, e.Now())
			})
		}
	})
}

// TestGoldenZeroQuantumInterleaved: an unbounded (zero-quantum) proc parks
// only at its effect syncs while bounded procs park every quantum; the
// effect points must interleave in time order.
func TestGoldenZeroQuantumInterleaved(t *testing.T) {
	assertGolden(t, golden{end: 3330, seq: 102, hash: 0x8b758d0fd7d79d6b, st: Stats{92, 0, 92, 0, 10, 8, 0}}, func(e *Engine, rec *recorder) {
		e.NewProc("unbounded", 0, func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Advance(333)
				p.Sync()
				rec.note("unbounded effect k=%d now=%d", k, e.Now())
			}
		})
		for i := 0; i < 3; i++ {
			i := i
			e.NewProc(fmt.Sprintf("b%d", i), 0, func(p *Proc) {
				p.SetQuantum(70)
				for k := 0; k < 80; k++ {
					p.Advance(Duration(20 + 9*i))
					if k%20 == 19 {
						p.Sync()
						rec.note("b%d effect k=%d now=%d", i, k, e.Now())
					}
				}
			})
		}
	})
}

// TestGoldenRunUntilBoundary stops at a finite RunUntil limit mid-run: the
// clock, the pending count and every proc's local clock at the boundary are
// observable state, and resuming with Run must finish the same way.
func TestGoldenRunUntilBoundary(t *testing.T) {
	assertGolden(t, golden{end: 4554, seq: 156, hash: 0x9b5693ff143d638a, st: Stats{137, 0, 137, 0, 19, 0, 0}}, func(e *Engine, rec *recorder) {
		var procs []*Proc
		for i := 0; i < 3; i++ {
			i := i
			procs = append(procs, e.NewProc(fmt.Sprintf("r%d", i), 0, func(p *Proc) {
				p.SetQuantum(50)
				for k := 0; k < 100; k++ {
					p.Advance(Duration(30 + 8*i))
					if k%33 == 32 {
						p.Sync()
						rec.note("r%d effect now=%d", i, e.Now())
					}
				}
			}))
		}
		mid := e.RunUntil(1000)
		rec.note("mid clock=%d pending=%d", mid, e.queue.len())
		for i, p := range procs {
			rec.note("mid r%d local=%d", i, p.LocalTime())
		}
	})
}

// --- Quantum/lookahead edge cases ---

// TestSetQuantumMidAdvance changes the quantum between Advance calls; the
// new bound must take effect for the very next Advance.
func TestSetQuantumMidAdvance(t *testing.T) {
	e := NewEngine()
	var syncs []Time
	e.NewProc("p", 0, func(p *Proc) {
		p.SetQuantum(100)
		p.Advance(150) // exceeds 100: parks at 150
		p.SetQuantum(1000)
		p.Advance(900) // lookahead 900 <= 1000: no park
		if e.Now() != 150 {
			syncs = append(syncs, ^Time(0))
		}
		p.Advance(200) // lookahead 1100 > 1000: parks at 1250
		p.SetQuantum(50)
		p.Advance(60) // new tight bound: parks at 1310
		p.Sync()
	})
	trackSyncs := func() {}
	_ = trackSyncs
	e.Run()
	if len(syncs) != 0 {
		t.Fatal("quantum 1000 did not suppress the park")
	}
	if e.Now() != 1310 {
		t.Fatalf("final clock %d, want 1310", e.Now())
	}
}

// TestQuantumExactlyEqualToStep: a quantum exactly equal to the advance
// step must not park (the bound is strict: lookahead > quantum), and two
// steps must.
func TestQuantumExactlyEqualToStep(t *testing.T) {
	e := NewEngine()
	parks := 0
	e.NewProc("p", 0, func(p *Proc) {
		p.SetSyncHook(func() { parks++ }, nil)
		p.SetQuantum(100)
		p.Advance(100) // lookahead == quantum: stays local
		if e.Now() != 0 {
			t.Errorf("engine advanced to %d on an exactly-quantum step", e.Now())
		}
		p.Advance(100) // lookahead 200 > 100: parks at 200
		if e.Now() != 200 {
			t.Errorf("engine at %d after second step, want 200", e.Now())
		}
	})
	e.Run()
	if parks != 1 {
		t.Fatalf("parks = %d, want exactly 1", parks)
	}
}

// TestZeroQuantumUnbounded: zero quantum means unbounded lookahead — the
// proc must never park on Advance no matter how far it runs ahead, while a
// bounded sibling interleaves normally.
func TestZeroQuantumUnbounded(t *testing.T) {
	e := NewEngine()
	var order []string
	e.NewProc("free", 0, func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(1000)
		}
		if e.Now() != 0 {
			t.Errorf("unbounded proc advanced the engine to %d", e.Now())
		}
		p.Sync()
		order = append(order, fmt.Sprintf("free@%d", e.Now()))
	})
	e.NewProc("tight", 0, func(p *Proc) {
		p.SetQuantum(10)
		for i := 0; i < 5; i++ {
			p.Advance(100)
			order = append(order, fmt.Sprintf("tight@%d", p.LocalTime()))
		}
	})
	e.Run()
	// tight parks at 100..500 and records after each park; free syncs at
	// 1000000 last.
	want := []string{"tight@100", "tight@200", "tight@300", "tight@400", "tight@500", "free@1000000"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
