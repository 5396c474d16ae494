package bench

import (
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// Run is the record of one harness cell, under a fault schedule or none.
// The time and checksum are only meaningful when Completed is true; when
// the watchdog stopped a frozen run, Watchdog carries its diagnostic
// report. Run holds no pointer or slice, so two runs compare with ==.
type Run struct {
	// US is the cell's reported time in simulated microseconds (half
	// round-trip for the mailbox cells, iteration-loop time for Laplace).
	US float64
	// Sum is the application checksum (0 for the mailbox cells).
	Sum float64
	// Completed reports whether the measurement reached its natural end.
	Completed bool
	// Watchdog is the progress watchdog's diagnostic report ("" when it did
	// not fire).
	Watchdog string
	// Faults is the injector's decision and injection record.
	Faults faults.Stats
	// Mailbox carries the protocol counters, including the hardened
	// recovery counters (retransmits, discarded corruptions/duplicates).
	Mailbox mailbox.Stats
	// Rescues counts hardened WaitFor parks that found missed mail.
	Rescues uint64
}

// postMortem is a cell's record as far as the cluster knows it: the
// watchdog, fault, mailbox and rescue counters, and Completed unless the
// watchdog stopped the run. The caller fills in the time and checksum.
func postMortem(cl *kernel.Cluster) Run {
	r := Run{
		Completed: !cl.WatchdogFired(),
		Watchdog:  cl.WatchdogReport(),
		Faults:    cl.Chip().FaultInjector().Stats(),
		Mailbox:   cl.Mailbox().Stats(),
	}
	for _, id := range cl.Members() {
		if k := cl.Kernel(id); k != nil {
			r.Rescues += k.Stats().Rescues
		}
	}
	return r
}

// MatmulCell runs the matmul workload (strong model) on the machine opts
// describe and returns the record and the observation (nil when
// opts.Observe requests nothing).
func MatmulCell(p matmul.Params, opts core.Options) (Run, *core.Observation) {
	m, err := core.NewMachine(opts)
	if err != nil {
		panic(err)
	}
	app := matmul.New(p)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	r := postMortem(m.Cluster)
	if r.Completed {
		res := app.Result()
		r.US, r.Sum = res.Elapsed.Microseconds(), res.Checksum
	}
	return r, m.Observability()
}

// DirChaosResult is a crash-chaos cell's post-mortem: the usual record,
// whose Sum is the checksum from the ranks' cooperative extraction, plus
// the replicated directory's protocol counters and the post-crash audit
// read through one survivor.
type DirChaosResult struct {
	Run
	// Dir is the replicated directory's protocol counters.
	Dir repldir.Stats
	// AuditSum is the checksum of the full grid re-read by one surviving
	// core after the last worker crash-halted (forcing dead-owner reclaims
	// under the strong model).
	AuditSum float64
	// EndUS is the run's final simulated time in microseconds.
	EndUS float64
}

// auditDelayCycles keeps the auditing rank busy long enough (~375 µs at
// 533 MHz) for the after-done crash schedule to kill the last worker before
// the audit's first load.
const auditDelayCycles = 200_000

// Fig9CrashChaosMembers runs the SVM Laplace cell on a machine with the
// replicated ownership directory under a crash schedule: the initial
// primary directory manager is killed mid-computation (forcing a
// view-change failover) and the last worker is killed right after it
// finishes (so the post-run audit must revoke and reassign its pages).
// Crash times are calibrated from a crash-free run of the same seed and
// schedule, keeping the whole cell a deterministic function of the config.
func Fig9CrashChaosMembers(cfg Fig9Config, model svm.Model, workers []int, fc *faults.Config) DirChaosResult {
	cal := *fc
	cal.Spec.Crashes = nil
	calRun := runFig9Dir(cfg, model, workers, &cal)
	run := *fc
	run.Spec.Crashes = []faults.Crash{
		{Core: faults.CrashPrimaryManager, AtUS: 0.4 * calRun.EndUS},
		{Core: faults.CrashLastWorker, AfterDoneUS: 50},
	}
	return runFig9Dir(cfg, model, workers, &run)
}

// runFig9Dir is one replicated-directory Laplace run: the given worker
// cores plus each chip's manager trio, with rank 0 auditing the full grid
// after the crash window.
func runFig9Dir(cfg Fig9Config, model svm.Model, workers []int, fc *faults.Config) DirChaosResult {
	m, app := fig9Machine(cfg, model, core.Options{
		Members:             workers,
		Faults:              fc,
		ReplicatedDirectory: &repldir.Config{},
	})
	workers = m.SVM.Workers()
	var audit float64
	mains := make(map[int]func(*core.Env), len(workers))
	for _, id := range workers {
		id := id
		mains[id] = func(env *core.Env) {
			app.Main(env.SVM)
			if id == workers[0] {
				env.Core().Cycles(auditDelayCycles)
				audit = app.AuditChecksum(env.SVM)
			}
		}
	}
	end := m.Run(mains)
	r := DirChaosResult{Run: fig9Result(m, app), Dir: m.Dir.Stats(), EndUS: end.Microseconds()}
	if r.Completed {
		r.AuditSum = audit
	}
	return r
}
