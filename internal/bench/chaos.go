package bench

import (
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/mesh"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// ChaosResult is one harness cell run under a deterministic fault schedule.
// The latency (or runtime) is only meaningful when Completed is true; when
// the watchdog stopped a frozen run, Watchdog carries its diagnostic report.
type ChaosResult struct {
	// US is the cell's reported time in simulated microseconds (half
	// round-trip for the mailbox cells, iteration-loop time for Laplace).
	US float64
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

// chaosResult assembles the post-mortem from a cluster.
func chaosResult(us float64, completed bool, cl *kernel.Cluster) ChaosResult {
	r := ChaosResult{
		US:        us,
		Completed: completed,
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

// Fig6Chaos runs Figure 6's representative cell — the IPI ping-pong at the
// mesh's maximum distance — under a fault schedule.
func Fig6Chaos(rounds int, fc *faults.Config) ChaosResult {
	m, err := mesh.New(mesh.DefaultConfig())
	if err != nil {
		panic(err)
	}
	peer := -1
	for h := m.MaxHops(); h >= 0 && peer < 0; h-- {
		peer = m.CoreAtDistance(0, h)
	}
	members := []int{0, peer}
	if members[0] > members[1] {
		members[0], members[1] = members[1], members[0]
	}
	us, done, cl, _ := runPingPongFull(pingPongConfig{
		mode: mailbox.ModeIPI, a: 0, b: peer, members: members,
		rounds: rounds, warmup: rounds / 4, faults: fc,
	}, core.Instrumentation{})
	return chaosResult(us, done, cl)
}

// Fig7Chaos runs Figure 7's polling cell at n activated cores under a fault
// schedule.
func Fig7Chaos(rounds, n int, fc *faults.Config) ChaosResult {
	us, done, cl, _ := runPingPongFull(pingPongConfig{
		mode: mailbox.ModePolling, a: 0, b: 30, members: fig7Members(n),
		rounds: rounds, warmup: rounds / 4, faults: fc,
	}, core.Instrumentation{})
	return chaosResult(us, done, cl)
}

// Fig9ChaosMembers runs one SVM Laplace cell on the given members under a
// fault schedule and returns the post-mortem together with the application
// checksum (0 when the run froze and the watchdog stopped it). Marker
// partitions are resolved against a calibration run of the same seed with
// the partitions stripped, as RunKV resolves its markers; a frozen
// calibration is reported as-is.
func Fig9ChaosMembers(cfg Fig9Config, model svm.Model, members []int, fc *faults.Config) (ChaosResult, float64) {
	if fc != nil && fc.Spec.HasPartitionMarker() {
		run := *fc
		run.Spec.Partitions = nil
		cal, sum := Fig9ChaosMembers(cfg, model, members, &run)
		if !cal.Completed {
			return cal, sum
		}
		run.Spec.Partitions = resolvePartitions(fc.Spec.Partitions, cal.US)
		fc = &run
	}
	m, app := fig9Machine(cfg, model, core.Options{Members: members, Faults: fc})
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	if m.Cluster.WatchdogFired() {
		return chaosResult(0, false, m.Cluster), 0
	}
	res := app.Result()
	return chaosResult(res.Elapsed.Microseconds(), true, m.Cluster), res.Checksum
}

// MatmulChaos runs the matmul workload (strong model) on the given members
// under a fault schedule and returns the post-mortem together with the
// application checksum (0 when the run froze).
func MatmulChaos(p matmul.Params, chip scc.Config, members []int, fc *faults.Config) (ChaosResult, float64) {
	m, err := core.NewMachine(core.Options{Topology: &chip, Members: members, Faults: fc})
	if err != nil {
		panic(err)
	}
	app := matmul.New(p)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	if m.Cluster.WatchdogFired() {
		return chaosResult(0, false, m.Cluster), 0
	}
	res := app.Result()
	return chaosResult(res.Elapsed.Microseconds(), true, m.Cluster), res.Checksum
}

// DirChaosResult is a crash-chaos cell's post-mortem: the usual chaos record
// plus the replicated directory's protocol counters and the two application
// checksums (the cooperative one from the ranks' own extraction, and the
// post-crash audit read through one survivor).
type DirChaosResult struct {
	ChaosResult
	// Dir is the replicated directory's protocol counters.
	Dir repldir.Stats
	// Sum is the application checksum from the ranks' cooperative extraction.
	Sum float64
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

// Fig9DirObserved is the fault-free replicated-directory Laplace cell with
// instrumentation wired into the machine: the source of the dir.* counters
// in `sccbench -metrics repldir`. Returns the iteration-loop time and the
// observation (nil when inst requests nothing).
func Fig9DirObserved(cfg Fig9Config, model svm.Model, n int, inst core.Instrumentation) (float64, *core.Observation) {
	m, app := fig9Machine(cfg, model, core.Options{
		Members:             core.FirstN(n),
		Observe:             inst,
		ReplicatedDirectory: &repldir.Config{},
	})
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	return app.Result().Elapsed.Microseconds(), m.Observability()
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
	r := DirChaosResult{EndUS: end.Microseconds(), Dir: m.Dir.Stats()}
	if m.Cluster.WatchdogFired() {
		r.ChaosResult = chaosResult(0, false, m.Cluster)
		return r
	}
	res := app.Result()
	r.ChaosResult = chaosResult(res.Elapsed.Microseconds(), true, m.Cluster)
	r.Sum = res.Checksum
	r.AuditSum = audit
	return r
}
