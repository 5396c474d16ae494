package kernel

import (
	"testing"

	"metalsvm/internal/faults"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// hardenedCluster builds a cluster in mode on a chip whose fault injector
// runs the hardened protocols with spec, and whose kernels park with
// rescue deadlines.
func hardenedCluster(t *testing.T, mode mailbox.Mode, members []int, seed uint64, spec faults.Spec, rescue sim.Duration) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	ccfg := scc.DefaultConfig()
	ccfg.PrivateMemPerCore = 1 << 20
	ccfg.SharedMem = 16 << 20
	chip, err := scc.New(eng, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	chip.SetFaultInjector(faults.NewInjector(faults.Config{Seed: seed, Spec: spec}))
	chip.Harden()
	kcfg := DefaultConfig()
	kcfg.Mode = mode
	kcfg.RescuePeriod = rescue
	cl, err := NewCluster(chip, kcfg, members)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl
}

// TestWaitUntilConditionBeforeDeadline: mail that flips the condition
// before the deadline makes WaitUntil return true, before the deadline.
func TestWaitUntilConditionBeforeDeadline(t *testing.T) {
	for _, mode := range []mailbox.Mode{mailbox.ModePolling, mailbox.ModeIPI} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, cl := newCluster(t, mode, []int{0, 1})
			deadline := sim.Microseconds(100)
			var got, ok bool
			var returned sim.Time
			cl.Start(0, func(k *Kernel) {
				k.RegisterHandler(MsgUser, func(k *Kernel, m mailbox.Msg) { got = true })
				ok = k.WaitUntil(func() bool { return got }, deadline)
				returned = k.Core().Now()
			})
			cl.Start(1, func(k *Kernel) {
				k.Core().Proc().Advance(sim.Microseconds(10))
				k.Send(0, MsgUser, nil)
			})
			eng.Run()
			eng.Shutdown()
			if !ok || !got {
				t.Fatalf("WaitUntil = %v with the mail delivered = %v", ok, got)
			}
			if returned >= deadline {
				t.Fatalf("returned at %v us, not before the %v us deadline",
					returned.Microseconds(), deadline.Microseconds())
			}
		})
	}
}

// TestWaitUntilDeadlinePassesFirst: a condition that never holds makes
// WaitUntil return false exactly at the deadline.
func TestWaitUntilDeadlinePassesFirst(t *testing.T) {
	for _, mode := range []mailbox.Mode{mailbox.ModePolling, mailbox.ModeIPI} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, cl := newCluster(t, mode, []int{0, 1})
			deadline := sim.Microseconds(50)
			ok := true
			var returned sim.Time
			cl.Start(0, func(k *Kernel) {
				ok = k.WaitUntil(func() bool { return false }, deadline)
				returned = k.Core().Now()
			})
			cl.Start(1, func(k *Kernel) {})
			eng.Run()
			eng.Shutdown()
			if ok {
				t.Fatal("WaitUntil on a false condition returned true")
			}
			if returned != deadline {
				t.Fatalf("returned at %d ps, want the deadline %d ps", returned, deadline)
			}
		})
	}
}

// TestWaitUntilRescueScanPastDeadline is the regression test for a hardened
// rescue scan that charges the clock past the deadline: WaitUntil must
// return false rather than schedule its wake-up in the past (which the
// engine rejects with a panic).
func TestWaitUntilRescueScanPastDeadline(t *testing.T) {
	members := make([]int, 48)
	for i := range members {
		members[i] = i
	}
	eng, cl := hardenedCluster(t, mailbox.ModeIPI, members, 1, faults.Spec{}, 0)
	ok := true
	var deadline, returned sim.Time
	cl.Start(0, func(k *Kernel) {
		k.Core().Sync()
		// One rescue scan probes 47 slots at ~100 cycles each, far more
		// than this deadline leaves.
		deadline = k.Core().Now() + sim.Microseconds(1)
		ok = k.WaitUntil(func() bool { return false }, deadline)
		returned = k.Core().Now()
	})
	eng.Run()
	eng.Shutdown()
	if ok {
		t.Fatal("WaitUntil on a false condition returned true")
	}
	if returned <= deadline {
		t.Fatalf("returned at %d ps, want past the deadline %d ps (the scan's cost)", returned, deadline)
	}
}

// TestHardenedRescueScenarioPinned pins one hardened IPI-mode run with a
// rescue period and dropped IPIs: its end time, every kernel's counters and
// the engine's. It holds rescues, WaitUntil timeouts and WaitUntil
// successes, so a change to where or when the wait loop scans, parks or
// schedules its deadline wake shows up here.
func TestHardenedRescueScenarioPinned(t *testing.T) {
	var spec faults.Spec
	spec.Routes[faults.IPI].DropPermille = 400
	members := []int{0, 1, 2}
	eng, cl := hardenedCluster(t, mailbox.ModeIPI, members, 5, spec, sim.Microseconds(20))
	const msgReq, msgAck = MsgUser, MsgUser + 1
	acks, timeouts, successes := 0, 0, 0
	done := false
	cl.Start(0, func(k *Kernel) {
		k.RegisterHandler(msgAck, func(k *Kernel, m mailbox.Msg) { acks++ })
		if !k.WaitUntil(func() bool { return false }, k.Core().Now()+sim.Microseconds(70)) {
			timeouts++
		}
		for i := 0; i < 12; i++ {
			k.Send(1+i%2, msgReq, nil)
			want := i + 1
			if k.WaitUntil(func() bool { return acks >= want }, k.Core().Now()+sim.Microseconds(400)) {
				successes++
			} else {
				timeouts++
			}
		}
		done = true
	})
	for _, id := range members[1:] {
		cl.Start(id, func(k *Kernel) {
			k.RegisterHandler(msgReq, func(k *Kernel, m mailbox.Msg) {
				k.Core().Cycles(300)
				k.Send(m.From, msgAck, nil)
			})
			k.WaitFor(func() bool { return done })
		})
	}
	end := eng.Run()
	eng.Shutdown()
	var rescues uint64
	ks := make([]Stats, len(members))
	for i, id := range members {
		ks[i] = cl.Kernel(id).Stats()
		rescues += ks[i].Rescues
	}
	dropped := cl.Chip().FaultInjector().Stats().Drops[faults.IPI]
	if rescues == 0 || timeouts == 0 || successes == 0 || dropped == 0 {
		t.Fatalf("scenario lost its coverage: %d rescues, %d timeouts, %d successes, %d IPIs dropped",
			rescues, timeouts, successes, dropped)
	}
	const wantEnd = sim.Time(1061083333)
	wantKernels := []Stats{
		{IPIs: 8, Dispatched: 12, Rescues: 4},
		{IPIs: 5, Dispatched: 6, Rescues: 1},
		{IPIs: 2, Dispatched: 6, Rescues: 4},
	}
	wantEng := sim.Stats{Events: 498, ClosureEvents: 249, ProcSwitches: 165,
		SelfWakes: 23, RunThroughs: 115, SyncInStep: 163, InPlaceSteps: 46}
	for i := range members {
		if ks[i] != wantKernels[i] {
			t.Errorf("kernel %d stats %+v, want %+v", members[i], ks[i], wantKernels[i])
		}
	}
	if end != wantEnd || eng.Stats() != wantEng {
		t.Errorf("end %d want %d\nengine %+v\nwant   %+v", end, wantEnd, eng.Stats(), wantEng)
	}
}
