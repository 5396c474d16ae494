package bench

import (
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// Fig9Config describes one Laplace scaling study (Figure 9: runtimes of the
// Laplace benchmark over core counts, message passing vs both SVM models).
type Fig9Config struct {
	Params laplace.Params
	Chip   scc.Config
	// CoreCounts is the x-axis.
	CoreCounts []int
}

// Fig9Point is one x-position of Figure 9. Times are simulated
// microseconds for the whole iteration loop.
type Fig9Point struct {
	Cores    int
	IRCCEUS  float64 // message-passing baseline under "Linux" (iRCCE)
	StrongUS float64
	LazyUS   float64
}

// PaperFig9 is the paper's configuration: 1024x512 doubles (4 MiB per
// array, one row per page) on the stock platform. iters is configurable
// because the paper's 5000 iterations take a while to simulate. A run of k
// iterations costs a one-time warm-up W plus k times a steady per-iteration
// cost, so a smaller count preserves every crossover, but scaling by
// 5000/k multiplies W as well: the iRCCE cells in the L2 regime (32 and 48
// cores) carry a W of 2.9 and 2.2 ms, which x100 overstates by 4.7 and
// 6.6 % (EXPERIMENTS.md). Compare absolute runtimes with the two-point
// rule T(5000) = T(50) + 99·(T(100) − T(50)).
func PaperFig9(iters int) Fig9Config {
	p := laplace.DefaultParams()
	p.Iters = iters
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 24 << 20 // two full arrays + halos at n=1
	cfg.SharedMem = 16 << 20
	return Fig9Config{
		Params:     p,
		Chip:       cfg,
		CoreCounts: []int{1, 2, 4, 8, 16, 32, 48},
	}
}

// ScaledFig9 generalizes the Laplace study to an arbitrary topology: the
// paper's grid geometry on the given machine, sweeping core counts that
// double from 4 up to the machine's total (so a 4-chip 512-core topology
// exercises every chip at the top of the axis). The topology's own memory
// sizing is kept — scc.Grid/MultiChip already scale it to fit the 32-bit
// physical address space.
func ScaledFig9(topo scc.Config, iters int) Fig9Config {
	p := laplace.DefaultParams()
	p.Iters = iters
	cfg := topo.Normalized()
	total := cfg.Chips * cfg.Mesh.Width * cfg.Mesh.Height * cfg.Mesh.CoresPerTile
	var counts []int
	for n := 4; n < total; n *= 2 {
		counts = append(counts, n)
	}
	counts = append(counts, total)
	return Fig9Config{Params: p, Chip: cfg, CoreCounts: counts}
}

// Fig9RunBaseline runs the iRCCE variant on n cores and returns the
// iteration-loop time in microseconds.
func Fig9RunBaseline(cfg Fig9Config, n int) float64 {
	chip := cfg.Chip
	b, err := core.NewBaseline(&chip, core.FirstN(n))
	if err != nil {
		panic(err)
	}
	app := laplace.NewBaseline(cfg.Params, b.Comm)
	b.Run(func(rank int, c *cpu.Core) { app.Main(rank, c) })
	return app.Result().Elapsed.Microseconds()
}

// Fig9Cell runs the SVM Laplace cell under the model on the machine opts
// describe (members, fault schedule, instrumentation, replicated
// directory; cfg supplies the chip) and returns the record and the
// observation (nil when opts.Observe requests nothing). US is the
// iteration-loop time. Marker partitions are resolved against an
// uninstrumented calibration run of the same seed with the partitions
// stripped, as KVCell resolves its markers; a frozen calibration is
// reported as-is, without an observation.
func Fig9Cell(cfg Fig9Config, model svm.Model, opts core.Options) (Run, *core.Observation) {
	if fc := opts.Faults; fc != nil && fc.Spec.HasPartitionMarker() {
		run := *fc
		run.Spec.Partitions = nil
		calOpts := opts
		calOpts.Faults, calOpts.Observe = &run, core.Instrumentation{}
		cal, _ := Fig9Cell(cfg, model, calOpts)
		if !cal.Completed {
			return cal, nil
		}
		run.Spec.Partitions = resolvePartitions(fc.Spec.Partitions, cal.US)
		opts.Faults = &run
	}
	m, app := fig9Machine(cfg, model, opts)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	return fig9Result(m, app), m.Observability()
}

// fig9SVM is the iteration-loop time of one SVM variant on n cores.
func fig9SVM(cfg Fig9Config, model svm.Model, n int) float64 {
	r, _ := Fig9Cell(cfg, model, core.Options{Members: core.FirstN(n)})
	return r.US
}

// fig9Machine builds the SVM Laplace cell every Fig 9 variant runs: cfg's
// chip, the model's default SVM configuration and the rest of opts, with
// the application ready to run on every worker.
func fig9Machine(cfg Fig9Config, model svm.Model, opts core.Options) (*core.Machine, *laplace.SVMApp) {
	chip := cfg.Chip
	scfg := svm.DefaultConfig(model)
	opts.Topology, opts.SVM = &chip, &scfg
	m, err := core.NewMachine(opts)
	if err != nil {
		panic(err)
	}
	return m, laplace.NewSVM(cfg.Params, laplace.SVMOptions{})
}

// fig9Result is a Laplace cell's record once its machine has run.
func fig9Result(m *core.Machine, app *laplace.SVMApp) Run {
	r := postMortem(m.Cluster)
	if r.Completed {
		res := app.Result()
		r.US, r.Sum = res.Elapsed.Microseconds(), res.Checksum
	}
	return r
}

// Fig9 runs the full sweep: one independent simulation per (variant, core
// count) cell, fanned across the host pool. Each simulation is a pure
// function of (cfg, variant, n) and writes one field of one pre-assigned
// point, so the sweep's numbers are identical at any parallelism.
func Fig9(cfg Fig9Config) []Fig9Point {
	out := make([]Fig9Point, len(cfg.CoreCounts))
	var tasks []func()
	for i, n := range cfg.CoreCounts {
		p := &out[i]
		p.Cores = n
		tasks = append(tasks,
			func() { p.IRCCEUS = Fig9RunBaseline(cfg, n) },
			func() { p.StrongUS = fig9SVM(cfg, svm.Strong, n) },
			func() { p.LazyUS = fig9SVM(cfg, svm.LazyRelease, n) },
		)
	}
	runTasks(tasks)
	return out
}
