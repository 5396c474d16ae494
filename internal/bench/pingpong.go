// Package bench contains the experiment harness: one runner per table and
// figure of the paper's evaluation (Section 7), plus ablation studies of
// the design decisions. Runners return plain data; cmd/sccbench formats it
// like the paper's tables and series.
package bench

import (
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// Mail types used by the harness.
const (
	msgPing  = kernel.MsgUser + 8
	msgPong  = kernel.MsgUser + 9
	msgNoise = kernel.MsgUser + 10
	msgDone  = kernel.MsgUser + 11
)

// pingPongConfig describes one mailbox latency measurement: rounds
// ping-pongs between core 0 and core b, after rounds/4 warm-up rounds.
type pingPongConfig struct {
	mode    mailbox.Mode
	b       int   // the measuring pair's far end
	members []int // all activated cores (must contain 0 and b)
	rounds  int
	// chip is the platform: ShrunkChip of the paper's chip or of a
	// -chips/-grid topology.
	chip scc.Config
	// noise makes the filler cores exchange mail among themselves for the
	// whole measurement (Figure 7's third curve).
	noise bool
	// faults, when non-nil, runs the measurement under deterministic fault
	// injection (the chaos harness); nil leaves the run untouched.
	faults *faults.Config
	// inst attaches observers; the zero value attaches none.
	inst core.Instrumentation
}

// ShrunkChip shrinks a topology's memories the way the harness cells do
// (1 MiB private, ~16 MiB shared; the mailbox experiments never touch the
// SVM pool), keeping the shared region striped over the machine's
// controller count so the configuration still validates.
func ShrunkChip(topo scc.Config) scc.Config {
	cfg := topo.Normalized()
	cfg.PrivateMemPerCore = 1 << 20
	unit := uint32(cfg.Chips*len(cfg.Mesh.MemoryControllers)) * pgtable.PageSize
	shared := uint32(16 << 20)
	shared -= shared % unit
	if shared < unit {
		shared = unit
	}
	cfg.SharedMem = shared
	return cfg
}

// pingPong boots the member set and runs the measurement. The record's US
// is the mean half-round-trip latency in microseconds, and Completed
// reports whether the measurement finished (a faulty unhardened run can
// freeze until the watchdog stops it). The observation is nil when cfg.inst
// requests nothing; instrumentation leaves the record bit-identical.
func pingPong(cfg pingPongConfig) (Run, *core.Observation) {
	const a = 0
	eng := sim.NewEngine()
	chip, err := scc.New(eng, cfg.chip)
	if err != nil {
		panic(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Mode = cfg.mode
	core.WireFaults(chip, &kcfg, cfg.faults, false)
	cl, err := kernel.NewCluster(chip, kcfg, cfg.members)
	if err != nil {
		panic(err)
	}
	obs := core.Observe(cfg.inst, chip, []*kernel.Cluster{cl}, nil)

	done := false
	var elapsed sim.Duration

	pongs := 0
	cl.Start(a, func(k *kernel.Kernel) {
		k.RegisterHandler(msgPong, func(k *kernel.Kernel, m mailbox.Msg) { pongs++ })
		k.RegisterHandler(msgDone, func(k *kernel.Kernel, m mailbox.Msg) {})
		k.RegisterHandler(msgNoise, func(k *kernel.Kernel, m mailbox.Msg) {})
		run := func(n int) {
			for i := 0; i < n; i++ {
				k.Send(cfg.b, msgPing, nil)
				want := pongs + 1
				k.WaitFor(func() bool { return pongs >= want })
			}
		}
		run(cfg.rounds / 4)
		start := k.Core().Now()
		run(cfg.rounds)
		elapsed = k.Core().Now() - start
		done = true
		// Wake everybody that waits on the done flag.
		for _, m := range cfg.members {
			if m != a {
				k.Send(m, msgDone, nil)
			}
		}
	})

	pings := 0
	cl.Start(cfg.b, func(k *kernel.Kernel) {
		k.RegisterHandler(msgPing, func(k *kernel.Kernel, m mailbox.Msg) {
			pings++
			k.Send(a, msgPong, nil)
		})
		k.RegisterHandler(msgDone, func(k *kernel.Kernel, m mailbox.Msg) {})
		k.RegisterHandler(msgNoise, func(k *kernel.Kernel, m mailbox.Msg) {})
		k.WaitFor(func() bool { return done })
	})

	// Filler cores: pure idle, or pairwise noise traffic.
	fillers := make([]int, 0, len(cfg.members))
	for _, m := range cfg.members {
		if m != a && m != cfg.b {
			fillers = append(fillers, m)
		}
	}
	for i, id := range fillers {
		i, id := i, id
		var partner int
		hasPartner := cfg.noise && len(fillers) >= 2
		if hasPartner {
			if i%2 == 0 {
				if i+1 < len(fillers) {
					partner = fillers[i+1]
				} else {
					hasPartner = false // odd one out idles
				}
			} else {
				partner = fillers[i-1]
			}
		}
		cl.Start(id, func(k *kernel.Kernel) {
			noiseGot := 0
			k.RegisterHandler(msgNoise, func(k *kernel.Kernel, m mailbox.Msg) { noiseGot++ })
			k.RegisterHandler(msgDone, func(k *kernel.Kernel, m mailbox.Msg) {})
			if !hasPartner {
				k.WaitFor(func() bool { return done })
				return
			}
			if i%2 == 0 {
				// Initiator: strict ping-pong with the partner so mailbox
				// slots never back up when the measurement ends.
				for !done {
					k.Send(partner, msgNoise, nil)
					want := noiseGot + 1
					k.WaitFor(func() bool { return noiseGot >= want || done })
				}
			} else {
				for !done {
					want := noiseGot + 1
					k.WaitFor(func() bool { return noiseGot >= want || done })
					if done {
						break
					}
					k.Send(partner, msgNoise, nil)
				}
			}
		})
	}

	eng.Run()
	eng.Shutdown()
	obs.Finish()
	r := postMortem(cl)
	r.US, r.Completed = elapsed.Microseconds()/float64(2*cfg.rounds), done
	return r, obs
}

// latencyTask is a sweep task: it runs one ping-pong and stores the
// latency in dst.
func latencyTask(dst *float64, cfg pingPongConfig) func() {
	return func() {
		r, _ := pingPong(cfg)
		*dst = r.US
	}
}
