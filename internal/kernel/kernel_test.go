package kernel

import (
	"testing"

	"metalsvm/internal/faults"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

func newCluster(t testing.TB, mode mailbox.Mode, members []int) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	ccfg := scc.DefaultConfig()
	ccfg.PrivateMemPerCore = 1 << 20
	ccfg.SharedMem = 16 << 20
	chip, err := scc.New(eng, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := DefaultConfig()
	kcfg.Mode = mode
	cl, err := NewCluster(chip, kcfg, members)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl
}

func TestClusterValidation(t *testing.T) {
	eng := sim.NewEngine()
	chip, err := scc.New(eng, func() scc.Config {
		c := scc.DefaultConfig()
		c.PrivateMemPerCore = 1 << 20
		c.SharedMem = 16 << 20
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{nil, {5, 3}, {1, 1}, {99}} {
		if _, err := NewCluster(chip, DefaultConfig(), bad); err == nil {
			t.Errorf("member list %v accepted", bad)
		}
	}
}

func TestRequestReply(t *testing.T) {
	for _, mode := range []mailbox.Mode{ModePollingForTest, ModeIPIForTest} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			eng, cl := newCluster(t, mode, []int{0, 30})
			const (
				msgReq = MsgUser + iota
				msgAck
			)
			var gotReq, gotAck bool
			cl.Start(30, func(k *Kernel) {
				k.RegisterHandler(msgReq, func(k *Kernel, m mailbox.Msg) {
					gotReq = true
					k.Send(m.From, msgAck, nil)
				})
				k.WaitFor(func() bool { return gotReq })
			})
			cl.Start(0, func(k *Kernel) {
				k.RegisterHandler(msgAck, func(k *Kernel, m mailbox.Msg) { gotAck = true })
				k.Send(30, msgReq, nil)
				k.WaitFor(func() bool { return gotAck })
			})
			eng.Run()
			eng.Shutdown()
			if !gotReq || !gotAck {
				t.Fatalf("req=%v ack=%v", gotReq, gotAck)
			}
		})
	}
}

// Mode aliases so the table-driven test reads well.
const (
	ModePollingForTest = mailbox.ModePolling
	ModeIPIForTest     = mailbox.ModeIPI
)

func TestBarrierSynchronizes(t *testing.T) {
	members := []int{0, 5, 10, 30, 40, 47}
	eng, cl := newCluster(t, mailbox.ModeIPI, members)
	arrive := make(map[int]sim.Time)
	leave := make(map[int]sim.Time)
	for i, id := range members {
		id, i := id, i
		cl.Start(id, func(k *Kernel) {
			// Skew arrival times heavily.
			k.Core().Proc().Advance(sim.Microseconds(float64(i * 50)))
			k.Core().Sync()
			arrive[id] = k.Core().Now()
			k.Barrier()
			leave[id] = k.Core().Now()
		})
	}
	eng.Run()
	eng.Shutdown()
	var maxArrive sim.Time
	for _, at := range arrive {
		if at > maxArrive {
			maxArrive = at
		}
	}
	for id, lt := range leave {
		if lt < maxArrive {
			t.Fatalf("core %d left the barrier at %v before the last arrival %v",
				id, lt.Microseconds(), maxArrive.Microseconds())
		}
	}
}

func TestRepeatedBarriersWithSkew(t *testing.T) {
	// Fast cores race ahead into the next barrier; arrival accounting must
	// not lose or double-count mail.
	members := []int{0, 1, 2, 3, 4}
	eng, cl := newCluster(t, mailbox.ModeIPI, members)
	const rounds = 50
	counters := make(map[int]int)
	ok := true
	for i, id := range members {
		id, i := id, i
		cl.Start(id, func(k *Kernel) {
			for r := 0; r < rounds; r++ {
				k.Core().Cycles(uint64(100 * (i + 1))) // skewed work
				counters[id]++
				k.Barrier()
				// After leaving barrier r every member must have arrived at
				// r (counter >= mine), and none may be more than one round
				// ahead (it cannot pass its next barrier without my mail).
				for _, other := range members {
					if counters[other] < counters[id] || counters[other] > counters[id]+1 {
						ok = false
					}
				}
			}
		})
	}
	eng.Run()
	eng.Shutdown()
	if !ok {
		t.Fatal("barrier let a member run ahead")
	}
	for id, c := range counters {
		if c != rounds {
			t.Fatalf("core %d completed %d rounds", id, c)
		}
	}
	// The watchdog report's line: every notification from core 0's three
	// dissemination partners seen and consumed, in sender order.
	if got, want := cl.kernels[0].DebugString(), "kernel 0: barriers=50 done=true seen/used: 1:50/50 3:50/50 4:50/50"; got != want {
		t.Fatalf("DebugString = %q, want %q", got, want)
	}
}

func TestUnknownMailTypePanics(t *testing.T) {
	eng, cl := newCluster(t, mailbox.ModePolling, []int{0, 1})
	panicked := false
	cl.Start(0, func(k *Kernel) {
		k.Send(1, 200, nil)
	})
	cl.Start(1, func(k *Kernel) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		k.WaitFor(func() bool { return false })
	})
	eng.Run()
	eng.Shutdown()
	if !panicked {
		t.Fatal("unknown mail type dispatched silently")
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	eng, cl := newCluster(t, mailbox.ModePolling, []int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler accepted")
		}
		eng.Shutdown()
	}()
	k := cl.Start(0, func(k *Kernel) {})
	k.RegisterHandler(MsgUser, func(k *Kernel, m mailbox.Msg) {})
	k.RegisterHandler(MsgUser, func(k *Kernel, m mailbox.Msg) {})
}

func TestTimerTicksDriveMailServiceInPollingMode(t *testing.T) {
	eng, cl := newCluster(t, mailbox.ModePolling, []int{0, 1})
	var got bool
	cl.Start(0, func(k *Kernel) {
		// Busy compute only — no explicit waits. The timer interrupt's
		// serviceAll must still pick up the mail.
		k.RegisterHandler(MsgUser, func(k *Kernel, m mailbox.Msg) { got = true })
		for i := 0; i < 3000 && !got; i++ {
			k.Core().Cycles(1000)
		}
	})
	cl.Start(1, func(k *Kernel) {
		k.Core().Proc().Advance(sim.Microseconds(10))
		k.Send(0, MsgUser, nil)
	})
	eng.Run()
	eng.Shutdown()
	if !got {
		t.Fatal("timer-driven polling never serviced the mail")
	}
	if cl.Kernel(0).Stats().TimerTicks == 0 {
		t.Fatal("no timer ticks recorded")
	}
}

// TestCrossRequestNoDeadlock has both kernels request from each other at
// the same time; each must service the peer's request while waiting for
// its own reply (the property the SVM ownership protocol depends on).
func TestCrossRequestNoDeadlock(t *testing.T) {
	for _, mode := range []mailbox.Mode{mailbox.ModePolling, mailbox.ModeIPI} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			eng, cl := newCluster(t, mode, []int{0, 30})
			const (
				msgReq = MsgUser + iota
				msgAck
			)
			acked := map[int]bool{}
			mk := func(peer int) func(*Kernel) {
				return func(k *Kernel) {
					k.RegisterHandler(msgReq, func(k *Kernel, m mailbox.Msg) {
						k.Core().Cycles(500) // pretend to flush caches
						k.Send(m.From, msgAck, nil)
					})
					k.RegisterHandler(msgAck, func(k *Kernel, m mailbox.Msg) {
						acked[k.ID()] = true
					})
					k.Send(peer, msgReq, nil)
					k.WaitFor(func() bool { return acked[k.ID()] })
				}
			}
			cl.Start(0, mk(30))
			cl.Start(30, mk(0))
			eng.Run()
			eng.Shutdown()
			if !acked[0] || !acked[30] {
				t.Fatalf("acked = %v — deadlock in cross request", acked)
			}
		})
	}
}

func TestBarrierDeterminism(t *testing.T) {
	run := func() sim.Time {
		members := []int{0, 1, 2, 3, 10, 20, 30, 47}
		eng, cl := newCluster(t, mailbox.ModeIPI, members)
		for i, id := range members {
			id, i := id, i
			cl.Start(id, func(k *Kernel) {
				for r := 0; r < 10; r++ {
					k.Core().Cycles(uint64(37 * (i + 1)))
					k.Barrier()
				}
			})
		}
		end := eng.Run()
		eng.Shutdown()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic barrier: %d vs %d", a, b)
	}
}

func TestPollingCostGrowsWithMembers(t *testing.T) {
	// Half-round-trip ping-pong latency between cores 0 and 30 must grow
	// with member count in polling mode (Figure 7's rising curve).
	lat := func(extra int) sim.Duration {
		members := []int{0, 30}
		for i := 1; len(members) < 2+extra; i++ {
			if i != 30 {
				members = append(members, i)
			}
		}
		// Keep sorted.
		for i := 1; i < len(members); i++ {
			for j := i; j > 0 && members[j-1] > members[j]; j-- {
				members[j-1], members[j] = members[j], members[j-1]
			}
		}
		eng, cl := newCluster(t, mailbox.ModePolling, members)
		const rounds = 20
		var mean sim.Duration
		pong := 0
		ping := 0
		cl.Start(0, func(k *Kernel) {
			k.RegisterHandler(MsgUser+1, func(k *Kernel, m mailbox.Msg) { pong++ })
			start := k.Core().Now()
			for i := 0; i < rounds; i++ {
				k.Send(30, MsgUser, nil)
				want := i + 1
				k.WaitFor(func() bool { return pong >= want })
			}
			mean = (k.Core().Now() - start) / sim.Duration(2*rounds)
		})
		cl.Start(30, func(k *Kernel) {
			k.RegisterHandler(MsgUser, func(k *Kernel, m mailbox.Msg) {
				ping++
				k.Send(0, MsgUser+1, nil)
			})
			k.WaitFor(func() bool { return ping >= rounds })
		})
		for _, id := range members {
			if id == 0 || id == 30 {
				continue
			}
			cl.Start(id, func(k *Kernel) {
				k.WaitFor(func() bool { return ping >= rounds && pong >= rounds })
			})
		}
		eng.Run()
		eng.Shutdown()
		return mean
	}
	small := lat(0)
	big := lat(30)
	if big <= small {
		t.Fatalf("polling latency with 32 members (%v us) not above 2 members (%v us)",
			big.Microseconds(), small.Microseconds())
	}
}

// A partner that crash-halts must not wedge the barrier: the dissemination
// rounds accept the liveness register in place of the dead peer's mail, and
// the survivors still synchronize with each other.
func TestBarrierSkipsDeadPeer(t *testing.T) {
	members := []int{0, 1, 2, 3}
	eng, cl := newCluster(t, mailbox.ModeIPI, members)
	const victim = 2
	arrive := make(map[int]sim.Time)
	leave := make(map[int]sim.Time)
	for i, id := range members {
		id, i := id, i
		cl.Start(id, func(k *Kernel) {
			if id == victim {
				// Park until the scheduled crash cuts this off for good.
				k.WaitFor(func() bool { return false })
			}
			// Skew arrivals so the barrier has to actually wait, and make
			// every survivor arrive after the crash.
			k.Core().Proc().Advance(sim.Microseconds(float64(20 + i*30)))
			k.Core().Sync()
			arrive[id] = k.Core().Now()
			k.Barrier()
			leave[id] = k.Core().Now()
		})
	}
	cl.ScheduleCrash(victim, sim.Microseconds(10))
	eng.Run()
	eng.Shutdown()
	if !cl.Kernel(victim).Dead() || cl.deadCount != 1 {
		t.Fatalf("victim not dead: dead=%v count=%d", cl.Kernel(victim).Dead(), cl.deadCount)
	}
	if len(leave) != len(members)-1 {
		t.Fatalf("survivors through the barrier: %v", leave)
	}
	var maxArrive sim.Time
	for _, at := range arrive {
		if at > maxArrive {
			maxArrive = at
		}
	}
	for id, lt := range leave {
		if lt < maxArrive {
			t.Fatalf("core %d left the barrier at %v before the last survivor arrived at %v",
				id, lt.Microseconds(), maxArrive.Microseconds())
		}
	}
}

// A member crashing while parked inside the barrier must release partners
// that would otherwise wait for its next-round notification forever.
func TestBarrierCrashMidBarrier(t *testing.T) {
	members := []int{0, 1, 2, 3}
	eng, cl := newCluster(t, mailbox.ModeIPI, members)
	const victim = 3
	done := 0
	for i, id := range members {
		id, i := id, i
		cl.Start(id, func(k *Kernel) {
			if id != victim {
				// The victim arrives first and dies waiting for partners.
				k.Core().Proc().Advance(sim.Microseconds(float64(100 + i*30)))
				k.Core().Sync()
			}
			k.Barrier()
			done++
		})
	}
	cl.ScheduleCrash(victim, sim.Microseconds(50))
	eng.Run()
	eng.Shutdown()
	if done != len(members)-1 {
		t.Fatalf("%d survivors passed the barrier, want %d", done, len(members)-1)
	}
}

// Dead partners must not sever the barrier's dependency chain. With cores 2
// and 3 crashed before the barrier and core 1 arriving long after core 0,
// every partner a dead-skip dissemination round of core 0 waits on (3 in
// round 1, 2 in round 2) is dead — the scheme that merely skipped dead
// partners let core 0 fall through the barrier before core 1 arrived, since
// its dependency on core 1 only existed transitively through the corpses.
// The crash-tolerant rendezvous must keep every survivor waiting on every
// other survivor directly.
func TestBarrierDeadPeersAdversarialOrder(t *testing.T) {
	members := []int{0, 1, 2, 3}
	eng, cl := newCluster(t, mailbox.ModeIPI, members)
	victims := map[int]bool{2: true, 3: true}
	arrive := make(map[int]sim.Time)
	leave := make(map[int]sim.Time)
	for _, id := range members {
		id := id
		cl.Start(id, func(k *Kernel) {
			if victims[id] {
				// Park until the scheduled crash cuts this off for good.
				k.WaitFor(func() bool { return false })
			}
			skew := 50.0
			if id == 1 {
				skew = 300 // the survivor no round of core 0 waits on directly
			}
			k.Core().Proc().Advance(sim.Microseconds(skew))
			k.Core().Sync()
			arrive[id] = k.Core().Now()
			k.Barrier()
			leave[id] = k.Core().Now()
		})
	}
	cl.ScheduleCrash(2, sim.Microseconds(10))
	cl.ScheduleCrash(3, sim.Microseconds(10))
	eng.Run()
	eng.Shutdown()
	if len(leave) != 2 {
		t.Fatalf("survivors through the barrier: %v", leave)
	}
	for id, lt := range leave {
		if lt < arrive[1] {
			t.Fatalf("core %d left the barrier at %v us before core 1 arrived at %v us",
				id, lt.Microseconds(), arrive[1].Microseconds())
		}
	}
}

// BenchmarkMailRoundTrip: two pairs of kernels mail each other in IPI
// mode at once, and each receiver takes its mail in its IPI handler's
// Check. One op is one plain Send and its Check, each one step chain from
// the core's mailbox record whose Syncs the engine runs in place while the
// other pair holds the baton: about 2 in-place steps and 6 switches an op,
// and 0 allocs/op. The switches left are the waits: the IPI wakes the
// receiver, which parks again, and the sender parks on the slot its last
// mail still holds.
func BenchmarkMailRoundTrip(b *testing.B) {
	eng, cl := newCluster(b, mailbox.ModeIPI, []int{0, 17, 30, 47})
	mailRoundTrips(b, eng, cl)
}

// BenchmarkHardenedMailRoundTrip is BenchmarkMailRoundTrip on a hardened
// chip with no faults drawn: each Send also stamps a sequence number and
// checksum, waits for its previous mail's acknowledgement and arms a
// retransmission timer, which later finds the mail acknowledged and retires.
// It must read 0 allocs/op: the timers are recycled records.
func BenchmarkHardenedMailRoundTrip(b *testing.B) {
	eng, cl := hardenedCluster(b, mailbox.ModeIPI, []int{0, 17, 30, 47}, 1, faults.Spec{}, 0)
	mailRoundTrips(b, eng, cl)
}

// mailRoundTrips runs b.N mails from core 0 to 30 and as many from 47 to 17,
// each taken in the receiver's IPI handler.
func mailRoundTrips(b *testing.B, eng *sim.Engine, cl *Cluster) {
	got := 0
	for _, pair := range [][2]int{{0, 30}, {47, 17}} {
		from, to := pair[0], pair[1]
		cl.Start(to, func(k *Kernel) {
			k.RegisterHandler(MsgUser, func(*Kernel, mailbox.Msg) { got++ })
			k.WaitFor(func() bool { return got >= b.N })
		})
		cl.Start(from, func(k *Kernel) {
			for got < b.N {
				k.Send(to, MsgUser, nil)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	s := eng.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(s.ProcSwitches)/n, "switches/op")
	b.ReportMetric(float64(s.InPlaceSteps)/n, "in-place/op")
	eng.Shutdown()
}
