// Package core is the MetalSVM facade — the paper's contribution assembled
// into one public API. It builds the simulated SCC, boots a cluster of
// MetalSVM kernels on a chosen set of cores, wires up the SVM system, and
// runs user workloads on the simulated cores.
//
// Typical use:
//
//	m, _ := core.NewMachine(core.Options{Members: core.FirstN(8)})
//	m.RunAll(func(env *core.Env) {
//	    base := env.SVM.Alloc(4 << 20)
//	    env.K.Core().Store64(base, 42)
//	    env.SVM.Barrier()
//	})
//	m.Wait()
//
// For the message-passing baseline (RCCE/iRCCE "under Linux"), use
// NewBaseline, which boots bare cores with an RCCE communicator and an
// L2-enabled private-memory environment instead of MetalSVM kernels.
package core

import (
	"fmt"
	"slices"

	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/kernel"
	"metalsvm/internal/rcce"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// Options configures a MetalSVM machine. Zero values select the paper's
// defaults (48 cores at 533 MHz, 800 MHz mesh and memory, IPI-driven
// mailboxes, strong consistency).
type Options struct {
	// Topology selects the machine shape through the validated topology
	// API — scc.PaperSCC, scc.Grid, scc.MultiChip, or a hand-built
	// scc.Config. Nil keeps the paper's 48-core chip.
	Topology *scc.Config
	// SVM overrides the SVM configuration (consistency model, calibration).
	SVM *svm.Config
	// Members lists the cores to boot (sorted, distinct). Defaults to all.
	Members []int
	// Observe configures instrumentation (tracing, race checking, metrics,
	// profiling) in one place; read the artifacts from
	// Machine.Observability() after the run.
	Observe Instrumentation
	// Faults, when non-nil, enables deterministic fault injection with the
	// given seed and schedule, plus (unless Config.NoHarden) the hardened
	// recovery protocols and the progress watchdog. Nil reproduces plain
	// runs bit for bit.
	Faults *faults.Config
	// IntraParallel is accepted and ignored: there is one engine, and every
	// value of this field gave bit-identical results while there were two,
	// so no caller can observe the difference. It stays only because
	// benchmark/workloads.go sets it and benchmark/ does not change together
	// with other code. A benchmark-only change drops that trial (ROADMAP
	// item 1(a)); the change after it deletes this field (item 8(a)).
	IntraParallel int
	// ReplicatedDirectory, when non-nil, replaces the SVM system's
	// single-copy ownership directory with the crash-fault-tolerant
	// replicated one: Members become the SVM worker set and the manager
	// cores (Config.Managers, or the highest free cores) are booted
	// alongside them running the replication kernel. Nil keeps the legacy
	// directory bit for bit.
	ReplicatedDirectory *repldir.Config
}

// Default hardening parameters applied by WireFaults when the kernel config
// leaves them zero: the watchdog samples cluster progress every 2 ms of
// simulated time and fires after 8 frozen windows; hardened WaitFor parks
// re-scan their mailboxes every 500 µs.
const DefaultWatchdogStrikes = 8

var (
	defaultWatchdogPeriod = sim.Microseconds(2000)
	defaultRescuePeriod   = sim.Microseconds(500)
)

// WireFaults installs a fault injector built from fc onto the chip, with the
// kernel config's watchdog defaults, and hardens the chip, with the rescue
// default, when fc injects without NoHarden or replicated is set. The
// replicated directory's managers send from their interrupt handlers; only
// the hardened mailbox/wait paths (which drain the sender's own inbox while
// blocked) make that deadlock-free, so it overrides NoHarden even on
// fault-free runs. It must run before kernel.NewCluster (the cluster arms
// its watchdog at construction). A nil fc without replicated is a no-op,
// preserving the plain machine bit for bit.
func WireFaults(chip *scc.Chip, kcfg *kernel.Config, fc *faults.Config, replicated bool) {
	if fc != nil {
		chip.SetFaultInjector(faults.NewInjector(*fc))
		if kcfg.WatchdogPeriod == 0 {
			kcfg.WatchdogPeriod = defaultWatchdogPeriod
		}
		if kcfg.WatchdogStrikes == 0 {
			kcfg.WatchdogStrikes = DefaultWatchdogStrikes
		}
	}
	if replicated || fc != nil && !fc.NoHarden {
		chip.Harden()
		if kcfg.RescuePeriod == 0 {
			kcfg.RescuePeriod = defaultRescuePeriod
		}
	}
}

// FirstN returns the member list {0, 1, ..., n-1}.
func FirstN(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// AllCores returns every core id of a topology — {0, ..., total-1} for the
// normalized chip count and grid size.
func AllCores(topo scc.Config) []int {
	topo = topo.Normalized()
	return FirstN(topo.Chips * topo.Mesh.Width * topo.Mesh.Height * topo.Mesh.CoresPerTile)
}

// ChipCores returns chip ch's core-id range of a topology: global core ids
// are chip-major, so chip ch owns {ch*per, ..., (ch+1)*per-1}.
func ChipCores(topo scc.Config, ch int) []int {
	topo = topo.Normalized()
	per := topo.Mesh.Width * topo.Mesh.Height * topo.Mesh.CoresPerTile
	m := make([]int, per)
	for i := range m {
		m[i] = ch*per + i
	}
	return m
}

// Env is what a workload receives on each booted core.
type Env struct {
	// K is the MetalSVM kernel on this core.
	K *kernel.Kernel
	// SVM is this kernel's handle on the shared virtual memory system.
	SVM *svm.Handle
}

// Core returns the underlying processor model.
func (e *Env) Core() *cpu.Core { return e.K.Core() }

// Machine is a booted MetalSVM system.
type Machine struct {
	Engine  *sim.Engine
	Chip    *scc.Chip
	Cluster *kernel.Cluster
	SVM     *svm.System
	// Dir is the replicated ownership directory, non-nil when
	// Options.ReplicatedDirectory was set.
	Dir *repldir.System

	obs     *Observation
	started bool
}

// Observability returns the machine's observation (nil when Options.Observe
// requested nothing). Artifacts — metrics snapshot, profile report,
// Perfetto export — are available after Run returns.
func (m *Machine) Observability() *Observation { return m.obs }

// NewMachine builds the platform, cluster and SVM system.
func NewMachine(opts Options) (*Machine, error) {
	chip, err := newPlatform(opts.Topology)
	if err != nil {
		return nil, err
	}
	m, err := assemble(chip, opts)
	if err != nil {
		return nil, err
	}
	m.observe(Observe(opts.Observe, chip, []*kernel.Cluster{m.Cluster}, []*svm.System{m.SVM}))
	return m, nil
}

// newPlatform builds an engine and a chip of topo (nil: the paper's chip).
func newPlatform(topo *scc.Config) (*scc.Chip, error) {
	ccfg := scc.DefaultConfig()
	if topo != nil {
		ccfg = *topo
	}
	return scc.New(sim.NewEngine(), ccfg)
}

// assemble boots opts' cluster, SVM system and replicated directory on a
// built chip, which may carry other machines on disjoint cores. It reads
// every field of opts but Topology and Observe.
func assemble(chip *scc.Chip, opts Options) (*Machine, error) {
	rcfg := opts.ReplicatedDirectory
	kcfg := kernel.DefaultConfig()
	WireFaults(chip, &kcfg, opts.Faults, rcfg != nil)
	members := opts.Members
	var workers, managers []int
	var err error
	if rcfg != nil {
		workers = members
		if workers == nil {
			if workers, err = DirectoryWorkers(chip.Config()); err != nil {
				return nil, err
			}
		}
		managers = rcfg.Managers
		if managers == nil {
			if managers, err = pickManagers(chip, workers); err != nil {
				return nil, err
			}
		}
		members = slices.Concat(workers, managers)
		slices.Sort(members)
		members = slices.Compact(members)
	}
	if members == nil {
		members = FirstN(chip.Cores())
	}
	cl, err := kernel.NewCluster(chip, kcfg, members)
	if err != nil {
		return nil, err
	}
	scfg := svm.DefaultConfig(svm.Strong)
	if opts.SVM != nil {
		scfg = *opts.SVM
	}
	if rcfg != nil {
		scfg.Workers = workers
	}
	sys, err := svm.New(cl, scfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{Engine: chip.Engine(), Chip: chip, Cluster: cl, SVM: sys}
	if rcfg != nil {
		dcfg := *rcfg
		dcfg.Managers = managers
		dir, err := repldir.New(sys, dcfg)
		if err != nil {
			return nil, err
		}
		sys.SetDirectory(dir)
		m.Dir = dir
	}
	if opts.Faults != nil {
		cl.AddDiagnostic(sys.DumpDiagnostics)
		if m.Dir != nil {
			cl.AddDiagnostic(m.Dir.DumpDiagnostics)
		}
		m.resolveCrashes(opts.Faults)
	}
	return m, nil
}

// observe hands the machine the observation covering it.
func (m *Machine) observe(obs *Observation) {
	m.obs = obs
	obs.AddDirectory(m.Dir)
}

// DirectoryWorkers is the SVM worker set of a replicated-directory machine
// on topo that lists no members: every core except the ReplicaCount highest
// of each chip, which are reserved for that chip's manager group. A chip
// with no core left over for a worker is an error.
func DirectoryWorkers(topo scc.Config) ([]int, error) {
	topo = topo.Normalized()
	per := topo.Mesh.Width * topo.Mesh.Height * topo.Mesh.CoresPerTile
	if per <= repldir.ReplicaCount {
		return nil, fmt.Errorf("core: a %d-core chip has no SVM worker beside its %d directory managers",
			per, repldir.ReplicaCount)
	}
	var workers []int
	for ch := 0; ch < topo.Chips; ch++ {
		workers = append(workers, ChipCores(topo, ch)[:per-repldir.ReplicaCount]...)
	}
	return workers, nil
}

// pickManagers selects each chip's highest cores that are not SVM workers
// as that chip's manager group, listed chip by chip (chip 0's group first)
// with each group in ascending order (group[0] is its initial primary).
func pickManagers(chip *scc.Chip, workers []int) ([]int, error) {
	per := chip.CoresPerChip()
	var managers []int
	for ch := 0; ch < chip.Chips(); ch++ {
		base := ch * per
		var picked []int
		for id := base + per - 1; id >= base && len(picked) < repldir.ReplicaCount; id-- {
			if !slices.Contains(workers, id) {
				picked = append(picked, id)
			}
		}
		if len(picked) < repldir.ReplicaCount {
			return nil, fmt.Errorf("core: no %d free cores for chip %d's directory managers (workers %v, %d cores per chip)",
				repldir.ReplicaCount, ch, workers, per)
		}
		slices.Reverse(picked) // view order wants ascending
		managers = append(managers, picked...)
	}
	return managers, nil
}

// resolveCrashes installs the fault schedule's permanent crashes on the
// cluster, resolving role sentinels against the machine's directory layout.
// Sentinel entries are inert without the replicated directory, and entries
// with no time are harness markers left for the benchmark driver to fill in.
func (m *Machine) resolveCrashes(fc *faults.Config) {
	if len(fc.Spec.Crashes) > 0 {
		// Any crash entry — even a time-less harness marker that schedules
		// nothing — switches the run's barriers to the crash-tolerant
		// scheme, so calibration runs with inert entries stay bit-identical
		// to the armed runs they calibrate.
		m.Cluster.ArmCrashBarriers()
	}
	for _, c := range fc.Spec.Crashes {
		id := c.Core
		switch id {
		case faults.CrashPrimaryManager:
			if m.Dir == nil {
				continue
			}
			id = m.Dir.Managers()[0]
		case faults.CrashBackupManager:
			if m.Dir == nil {
				continue
			}
			id = m.Dir.Managers()[1]
		case faults.CrashLastWorker:
			if m.Dir == nil {
				continue
			}
			w := m.SVM.Workers()
			id = w[len(w)-1]
		}
		if id < 0 {
			continue
		}
		switch {
		case c.AfterDoneUS > 0:
			m.Cluster.ScheduleCrashAfterDone(id, sim.Microseconds(c.AfterDoneUS))
		case c.AtUS > 0:
			m.Cluster.ScheduleCrash(id, sim.Microseconds(c.AtUS))
		}
	}
}

// Run boots each member with its main (every member must have one) and
// drives the simulation to completion, returning the final simulated time.
func (m *Machine) Run(mains map[int]func(*Env)) sim.Time {
	m.start(mains)
	return run(m.Engine, m.obs)
}

// RunAll runs the same main on every SVM worker (every member when the
// legacy directory is in place; directory managers keep their service loop).
func (m *Machine) RunAll(main func(*Env)) sim.Time {
	return m.Run(m.workerMains(main))
}

// workerMains maps every SVM worker to main.
func (m *Machine) workerMains(main func(*Env)) map[int]func(*Env) {
	ids := m.Cluster.Members()
	if m.Dir != nil {
		ids = m.SVM.Workers()
	}
	mains := make(map[int]func(*Env), len(ids))
	for _, id := range ids {
		mains[id] = main
	}
	return mains
}

// start boots each member with its main; the engine runs them later.
func (m *Machine) start(mains map[int]func(*Env)) {
	if m.started {
		panic("core: machine already run")
	}
	m.started = true
	for _, id := range m.Cluster.Members() {
		main := mains[id]
		if main == nil && m.Dir != nil && m.Dir.IsManager(id) {
			// Managers default to the directory service loop.
			main = func(env *Env) { m.Dir.ManagerMain(env.K) }
		}
		if main == nil {
			panic(fmt.Sprintf("core: no main for member %d", id))
		}
		m.Cluster.Start(id, func(k *kernel.Kernel) {
			if m.Dir != nil {
				m.Dir.Attach(k)
			}
			main(&Env{K: k, SVM: m.SVM.Attach(k)})
		})
	}
}

// run drives a booted engine to completion, then closes it and obs out.
func run(eng *sim.Engine, obs *Observation) sim.Time {
	end := eng.Run()
	eng.Shutdown()
	obs.Finish()
	return end
}

// Baseline is the comparison system: bare cores (think "SCC Linux") with
// the RCCE/iRCCE communication library and full L1+L2 caching of private
// memory — no MetalSVM kernels, no SVM.
type Baseline struct {
	Engine *sim.Engine
	Chip   *scc.Chip
	Comm   *rcce.Comm

	started bool
}

// NewBaseline builds the platform with an RCCE communicator over the given
// cores (rank order).
func NewBaseline(chipCfg *scc.Config, cores []int) (*Baseline, error) {
	chip, err := newPlatform(chipCfg)
	if err != nil {
		return nil, err
	}
	comm, err := rcce.New(chip, cores)
	if err != nil {
		return nil, err
	}
	return &Baseline{Engine: chip.Engine(), Chip: chip, Comm: comm}, nil
}

// Run boots every rank with main(rank, core) and drives the simulation.
func (b *Baseline) Run(main func(rank int, c *cpu.Core)) sim.Time {
	if b.started {
		panic("core: baseline already run")
	}
	b.started = true
	for r := 0; r < b.Comm.Size(); r++ {
		r := r
		b.Chip.Boot(b.Comm.CoreOf(r), func(c *cpu.Core) {
			main(r, c)
		})
	}
	return run(b.Engine, nil)
}
