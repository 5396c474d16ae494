package kernel

import (
	"reflect"
	"strings"
	"testing"

	"metalsvm/internal/faults"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/phys"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// scanOracle is serviceAll as a literal probe loop: per slot the profiler
// context, a Sync, the check's charge and the flag peek, then Take. It
// counts the checks it makes, which mailbox.Stats cannot see, and how often
// it ran inside another scan on the same core (a timer tick at a probe's
// Sync) or from a blocked hardened send (serviceSelf).
type scanOracle struct {
	checks uint64
	depth  []int
	nested int
	drains int
}

func (o *scanOracle) serviceAll(k *Kernel) bool {
	if k.servicing {
		o.drains++
	}
	if o.depth[k.id]++; o.depth[k.id] > 1 {
		o.nested++
	}
	defer func() { o.depth[k.id]-- }()
	c, chip, prof := k.core, k.Chip(), k.cluster.prof
	progress := false
	for _, m := range k.cluster.members {
		if m == k.id {
			continue
		}
		prof.EnterIfIdle(k.id, profile.MailboxWait, c.Now())
		c.Sync()
		c.Proc().Advance(chip.MailCheckLatency())
		o.checks++
		if chip.MPB().Byte(k.id, m*phys.CacheLine) == 0 {
			prof.Exit(k.id, c.Now())
			continue
		}
		if msg, ok := k.cluster.mb.Take(k.id, m); ok {
			k.dispatch(msg)
			progress = true
		}
	}
	return progress
}

// scanOutcome is everything a scan may move: the trace, the end time, the
// counters, the profile, and the engine's counts with its three ways of
// resuming a proc folded into one.
type scanOutcome struct {
	End     sim.Time
	Events  []trace.Event
	Mail    mailbox.Stats
	Kernels []Stats
	Profile *profile.Report
	Engine  sim.Stats
}

// runScanScenario runs eight kernels that request from each other round
// after round, with a 15 µs timer tick, through serviceAll or, with loop,
// through scanOracle. A non-nil spec runs the hardened protocols under it,
// with a rescue period.
func runScanScenario(t *testing.T, mode mailbox.Mode, spec *faults.Spec, loop bool) (scanOutcome, sim.Stats, *scanOracle) {
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
	kcfg.TimerPeriod = sim.Microseconds(15)
	if spec != nil {
		chip.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 7, Spec: *spec}))
		chip.Harden()
		kcfg.RescuePeriod = sim.Microseconds(20)
	}
	members := []int{0, 7, 13, 20, 26, 33, 40, 47}
	cl, err := NewCluster(chip, kcfg, members)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &scanOracle{depth: make([]int, chip.Cores())}
	if loop {
		cl.scanLoop = oracle.serviceAll
	}
	cl.SetProfiler(profile.New(chip.Cores(), profile.Config{SpanCapacity: -1}))
	var o scanOutcome
	kinds := make([]trace.Kind, 0, 64)
	for k := trace.Kind(0); !strings.HasPrefix(k.String(), "kind("); k++ {
		kinds = append(kinds, k)
	}
	chip.Tracer().Subscribe(func(e trace.Event) { o.Events = append(o.Events, e) }, kinds...)

	const msgReq, msgAck = MsgUser, MsgUser + 1
	const rounds = 10
	n := len(members)
	for idx, id := range members {
		cl.Start(id, func(k *Kernel) {
			acks := 0
			k.RegisterHandler(msgReq, func(k *Kernel, m mailbox.Msg) {
				k.Core().Cycles(uint64(300 + 37*idx))
				k.Send(m.From, msgAck, nil)
			})
			k.RegisterHandler(msgAck, func(k *Kernel, m mailbox.Msg) { acks++ })
			for r := 0; r < rounds; r++ {
				k.Send(members[(idx+1+r%(n-1))%n], msgReq, nil)
				k.WaitFor(func() bool { return acks > r })
				k.Core().Cycles(uint64(500 + 113*((idx*7+r)%5)))
			}
			k.Barrier()
		})
	}
	o.End = eng.Run()
	eng.Shutdown()
	o.Mail = cl.Mailbox().Stats()
	o.Mail.Checks += oracle.checks
	for _, id := range members {
		o.Kernels = append(o.Kernels, cl.Kernel(id).Stats())
	}
	o.Profile = cl.prof.Report()
	st := eng.Stats()
	o.Engine = st
	o.Engine.ProcSwitches += st.SelfWakes + st.InPlaceSteps
	o.Engine.SelfWakes, o.Engine.InPlaceSteps = 0, 0
	return o, st, oracle
}

// TestServiceAllMatchesLoop: serviceAll over mailbox.ScanTake produces
// the same trace, end time, mailbox, kernel and profiler counters, and
// engine counts as the literal probe loop, in polling mode and in hardened
// IPI and polling modes, with timer-tick scans nested in scans and blocked
// hardened sends draining their inbox; only the probes and takes run in
// place instead of switching to the kernel's goroutine.
func TestServiceAllMatchesLoop(t *testing.T) {
	ipiDrops := &faults.Spec{}
	ipiDrops.Routes[faults.IPI] = faults.RouteSpec{DropPermille: 300}
	mailFaults := &faults.Spec{}
	mailFaults.Routes[faults.Mail] = faults.RouteSpec{DropPermille: 100, CorruptPermille: 50, DupPermille: 50}
	for _, tc := range []struct {
		name string
		mode mailbox.Mode
		spec *faults.Spec
	}{
		{"polling", mailbox.ModePolling, nil},
		{"ipi hardened, dropped IPIs", mailbox.ModeIPI, ipiDrops},
		{"polling hardened, mail faults", mailbox.ModePolling, mailFaults},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop, loopEng, oracle := runScanScenario(t, tc.mode, tc.spec, true)
			scan, scanEng, _ := runScanScenario(t, tc.mode, tc.spec, false)
			if !reflect.DeepEqual(loop, scan) {
				t.Fatalf("serviceAll diverged from the probe loop:\nloop %+v\nscan %+v", loop, scan)
			}
			if scanEng.InPlaceSteps <= loopEng.InPlaceSteps || scanEng.ProcSwitches >= loopEng.ProcSwitches {
				t.Fatalf("no probe ran in place:\nloop %+v\nscan %+v", loopEng, scanEng)
			}
			if tc.mode == mailbox.ModePolling && oracle.nested == 0 {
				t.Fatal("no timer-tick scan nested in a scan")
			}
			if tc.spec != nil && oracle.drains == 0 {
				t.Fatal("no blocked hardened send drained its inbox")
			}
		})
	}
}
