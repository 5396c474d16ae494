package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// --- Baton edges ---
//
// There is no engine goroutine: the proc that parks runs the event loop, and
// a Sync that would be the queue head does not park at all. The tests below
// pin the edges of those two rules; the golden scenarios in sim_test.go pin
// that the sum of them moved no simulated outcome.

// TestSyncTieParksAndRunsSecond: a Sync whose wake ties on time with a queued
// event is not strictly first, so it must park, take the larger sequence
// number and run after the event.
func TestSyncTieParksAndRunsSecond(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(100, func() { order = append(order, "event") })
	e.NewProc("p", 0, func(p *Proc) {
		p.Advance(100)
		p.Sync()
		order = append(order, "proc")
	})
	e.Run()
	if got := strings.Join(order, ","); got != "event,proc" {
		t.Fatalf("order = %s, want event,proc", got)
	}
	if s := e.Stats(); s.RunThroughs != 0 || s.SelfWakes != 1 {
		t.Fatalf("stats = %+v, want no run-through and one self-wake", s)
	}
}

// TestSyncStrictlyFirstRunsThrough: with nothing queued at or before its
// time, the same Sync consumes its sequence number and does not park.
func TestSyncStrictlyFirstRunsThrough(t *testing.T) {
	e := NewEngine()
	hooks := 0
	e.At(101, func() {})
	e.NewProc("p", 0, func(p *Proc) {
		p.SetSyncHook(func() { hooks++ }, nil)
		p.Advance(100)
		seq, wake := e.seq, p.wakeSeq
		p.Sync()
		if e.Now() != 100 || e.seq != seq+1 || p.wakeSeq != wake+1 || hooks != 1 {
			t.Errorf("after run-through: now=%d seq=%d (was %d) wakeSeq=%d (was %d) hooks=%d",
				e.Now(), e.seq, seq, p.wakeSeq, wake, hooks)
		}
	})
	e.Run()
	want := Stats{Events: 2, ClosureEvents: 1, ProcSwitches: 1, RunThroughs: 1}
	if s := e.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestSyncPastLimitParks: a Sync past RunUntil's limit parks even with an
// empty queue, and the next RunUntil resumes it at its own time with the
// sequence number it took when it parked.
func TestSyncPastLimitParks(t *testing.T) {
	e := NewEngine()
	var resumedAt Time
	e.NewProc("p", 0, func(p *Proc) {
		p.Advance(500)
		p.Sync()
		resumedAt = e.Now()
	})
	if end := e.RunUntil(200); end != 0 || e.queue.len() != 1 || e.seq != 2 {
		t.Fatalf("RunUntil(200): end=%d pending=%d seq=%d, want 0, 1, 2", end, e.queue.len(), e.seq)
	}
	if resumedAt != 0 {
		t.Fatalf("proc ran past the limit, to %d", resumedAt)
	}
	if end := e.RunUntil(1000); end != 500 || resumedAt != 500 || e.seq != 2 {
		t.Fatalf("RunUntil(1000): end=%d resumedAt=%d seq=%d, want 500, 500, 2", end, resumedAt, e.seq)
	}
}

// TestStopThenSyncReturnsToCaller: Stop from a proc takes effect at its next
// park, run-through included: the proc stays parked and Run returns.
func TestStopThenSyncReturnsToCaller(t *testing.T) {
	e := NewEngine()
	after := false
	e.NewProc("p", 0, func(p *Proc) {
		p.Advance(100)
		e.Stop()
		p.Sync() // strictly first, but stopped: must park
		after = true
	})
	if end := e.Run(); end != 0 || after {
		t.Fatalf("Run returned at %d, body continued = %v; want 0, false", end, after)
	}
	e.Shutdown()
}

// TestWakeWhileParkedInSyncIsIgnored: Wake resumes only a proc in Wait. One
// that fires while its target is parked in Sync must not resume it early,
// whether the Wake was issued before or during that park.
func TestWakeWhileParkedInSyncIsIgnored(t *testing.T) {
	e := NewEngine()
	var resumedAt Time
	p := e.NewProc("p", 0, func(p *Proc) {
		p.Wake(300) // issued while running: stale by the time it fires
		p.Advance(1000)
		p.Sync()
		resumedAt = e.Now()
	})
	e.At(200, func() { p.Wake(400) }) // issued while parked in Sync
	e.At(500, func() {})
	e.Run()
	if resumedAt != 1000 {
		t.Fatalf("proc resumed at %d, want 1000", resumedAt)
	}
}

// TestHaltWithStartAndWakeQueued: a typed start or wake already in the queue
// when Halt lands is dropped like any other dispatch attempt.
func TestHaltWithStartAndWakeQueued(t *testing.T) {
	e := NewEngine()
	ran := 0
	unborn := e.NewProc("unborn", 100, func(p *Proc) { ran++ })
	waiter := e.NewProc("waiter", 0, func(p *Proc) {
		p.Wait()
		ran++
	})
	e.At(10, func() { waiter.Wake(50) })
	e.At(20, func() {
		unborn.Halt()
		waiter.Halt()
	})
	e.Run()
	if ran != 0 || e.queue.len() != 0 {
		t.Fatalf("halted procs ran %d times, %d events left", ran, e.queue.len())
	}
	e.Shutdown()
}

// TestFinishedProcHandsBatonOn: a proc whose body returns runs the event loop
// once more, so callbacks and other procs behind it still run.
func TestFinishedProcHandsBatonOn(t *testing.T) {
	e := NewEngine()
	var order []string
	e.NewProc("short", 0, func(p *Proc) { order = append(order, "short") })
	e.NewProc("long", 0, func(p *Proc) {
		p.Advance(100)
		p.Sync()
		order = append(order, "long")
	})
	e.At(50, func() { order = append(order, "event") })
	e.Run()
	if got := strings.Join(order, ","); got != "short,event,long" {
		t.Fatalf("order = %s, want short,event,long", got)
	}
	// short is started by Run's caller, starts long when it finishes, and
	// long's own wake comes back to it after the event: two switches.
	if s := e.Stats(); s.ProcSwitches != 2 || s.SelfWakes != 1 {
		t.Fatalf("stats = %+v, want 2 switches and 1 self-wake", s)
	}
}

// TestShutdownLeavesNoGoroutines: finished procs exit on their own and
// Shutdown unwinds the parked ones, halted included.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		i := i
		p := e.NewProc(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			p.Advance(Duration(10 * (i + 1)))
			p.Sync()
			if i%2 == 0 {
				p.Wait() // never woken
			}
		})
		if i == 3 {
			e.At(5, p.Halt)
		}
	}
	e.Run()
	e.Shutdown()
	e.Shutdown() // idempotent
	// A goroutine's last act is a channel send; give the exits a moment.
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the run", n, before)
	}
}

// --- Panics reach the caller ---

// expectProcPanic runs the engine and returns the *ProcPanic it raised.
func expectProcPanic(t *testing.T, e *Engine) (pp *ProcPanic) {
	t.Helper()
	defer func() {
		r := recover()
		var ok bool
		if pp, ok = r.(*ProcPanic); !ok {
			t.Fatalf("Run ended with %v, want a *ProcPanic", r)
		}
	}()
	e.Run()
	return nil
}

// TestBodyPanicReachesCaller: a panic in a proc body surfaces in Run's caller
// with the proc's name, the value and the body's stack; the other procs stay
// parked and Shutdown unwinds them.
func TestBodyPanicReachesCaller(t *testing.T) {
	e := NewEngine()
	bystander := e.NewProc("bystander", 0, func(p *Proc) { p.Wait() })
	victim := e.NewProc("victim", 0, func(p *Proc) {
		p.Advance(100)
		p.Sync()
		panic("boom")
	})
	pp := expectProcPanic(t, e)
	if pp.Proc != "victim" || pp.Value != "boom" {
		t.Fatalf("got %q / %v, want victim / boom", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "TestBodyPanicReachesCaller") {
		t.Fatalf("stack does not show the panicking body:\n%s", pp.Stack)
	}
	if victim.state != procDone || bystander.state == procDone {
		t.Fatalf("victim done=%v bystander done=%v, want true, false", victim.state == procDone, bystander.state == procDone)
	}
	e.Shutdown() // must not hang on the dead proc
	if bystander.state != procDone {
		t.Fatal("Shutdown did not unwind the bystander")
	}
}

// TestCallbackPanicOnProcGoroutineReachesCaller: the callback runs on the
// goroutine of whichever proc parked last, here one that has nothing to do
// with it; the panic still comes out of Run, naming that proc.
func TestCallbackPanicOnProcGoroutineReachesCaller(t *testing.T) {
	e := NewEngine()
	e.NewProc("carrier", 0, func(p *Proc) { p.Wait() })
	e.At(100, func() { e.At(50, func() {}) }) // scheduling in the past
	pp := expectProcPanic(t, e)
	if pp.Proc != "carrier" || !strings.Contains(fmt.Sprint(pp.Value), "before now 100") {
		t.Fatalf("got %q / %v", pp.Proc, pp.Value)
	}
	if !strings.Contains(pp.Error(), "sim: panic on proc carrier") {
		t.Fatalf("Error() = %q", pp.Error())
	}
	e.Shutdown()
}

// --- Host microbenchmarks: what one Sync costs by where the baton goes ---

// BenchmarkProcPingPong: two procs alternating Advance+Sync, each Sync one
// goroutine switch. The shape of benchmark/'s sim.proc_switch_ns.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine()
	body := func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Advance(1000)
			p.Sync()
		}
	}
	e.NewProc("a", 0, body)
	e.NewProc("b", 500, body)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	reportBaton(b, e)
}

// BenchmarkProcSelfWake: one proc, nothing else queued: every Sync runs
// through. No switch, no queue traffic.
func BenchmarkProcSelfWake(b *testing.B) {
	e := NewEngine()
	e.NewProc("a", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1000)
			p.Sync()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	reportBaton(b, e)
}

// BenchmarkProcBehindCallback: a callback queued ahead of each wake, so the
// Sync parks, advance runs the callback in place and hands the proc its own
// wake back. No switch, two queue round trips.
func BenchmarkProcBehindCallback(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	e.NewProc("a", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1000)
			e.At(p.LocalTime()-1, nop)
			p.Sync()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	reportBaton(b, e)
}

// BenchmarkChargeRunThrough: one proc, nothing else queued, so both Syncs
// of every charge run through. Charge takes its fast path: no Spin state is
// saved and no step is called, so it costs what the literal Sync, Advance,
// Sync beside it costs.
func BenchmarkChargeRunThrough(b *testing.B) {
	for _, form := range []struct {
		name   string
		charge func(p *Proc)
	}{
		{"Charge", func(p *Proc) { p.Charge(1000) }},
		{"literal", func(p *Proc) { p.Sync(); p.Advance(1000); p.Sync() }},
	} {
		b.Run(form.name, func(b *testing.B) {
			e := NewEngine()
			e.NewProc("a", 0, func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Advance(1000)
					form.charge(p)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			reportBaton(b, e)
		})
	}
}

// BenchmarkSignalFire: a proc fires a signal another proc waits on, then
// syncs past the fire. Each op is one Fire, its event, the waiter's wake and
// two switches; after the first fire it allocates nothing.
func BenchmarkSignalFire(b *testing.B) {
	e := NewEngine()
	sig := NewSignal(e)
	e.NewProc("waiter", 0, func(p *Proc) {
		for {
			sig.Wait(p)
		}
	})
	e.NewProc("firer", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sig.Fire(p.LocalTime())
			p.Advance(1000)
			p.Sync()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	reportBaton(b, e)
}

// BenchmarkSignalDeadline: a proc parks with a deadline wake-up, the way a
// kernel wait or a hardened sender parks, and the deadline resumes it. It
// must read 0 allocs/op.
func BenchmarkSignalDeadline(b *testing.B) {
	e := NewEngine()
	sig := NewSignal(e)
	e.NewProc("sleeper", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sig.Deadline(p.LocalTime() + 1000)
			sig.Wait(p)
		}
	})
	e.NewProc("neighbour", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1000)
			p.Sync()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	reportBaton(b, e)
}

// reportBaton prints where the baton went per Sync, so a run that stopped
// measuring what its name says is visible in the output.
func reportBaton(b *testing.B, e *Engine) {
	s := e.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(s.ProcSwitches)/n, "switches/op")
	b.ReportMetric(float64(s.SelfWakes)/n, "selfwakes/op")
	b.ReportMetric(float64(s.RunThroughs)/n, "runthroughs/op")
	e.Shutdown()
}
