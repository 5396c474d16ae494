package main

import (
	"fmt"
	"io"
	"os"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// suite is one whole-workload checker: the happens-before race checker
// (-check) or the sanitizer suite (-sanitize: shadow memory over the SVM
// window, Eraser-style locksets and the lock-order graph).
type suite struct {
	tool, title, clean string
	inst               core.Instrumentation
	paperCells         func() []cell // cells defined on the paper chip only
}

var raceSuite = suite{
	tool:       "racecheck",
	title:      "happens-before analysis of the shipped workloads",
	clean:      "all workloads race-free",
	inst:       core.Instrumentation{Race: true},
	paperCells: func() []cell { return append([]cell{checkDomains()}, perturbationCells()...) },
}

var sanSuite = suite{
	tool:       "sancheck",
	title:      "shadow-memory, lockset and lock-order analysis of the shipped workloads",
	clean:      "all workloads clean",
	inst:       core.Instrumentation{Sanitize: true},
	paperCells: sanitizeHarnesses,
}

// run reports the suite's cells in matrix order (runCells) and returns
// false if any reported a finding.
func (s suite) run(o *options) bool {
	fmt.Printf("%s: %s\n", s.tool, s.title)
	if o.topo != nil {
		fmt.Printf("%s: %d chip(s), %d cores activated\n", s.tool, o.topo.Normalized().Chips, len(smokeMembers(*o.topo)))
	}
	if !runCells(o.parallel, s.cells(o.topo)) {
		return false
	}
	fmt.Printf("%s: %s\n", s.tool, s.clean)
	return true
}

// cells is every shipped workload under both consistency models with the
// suite's checker enabled, then the suite's paper-chip cells. A
// -chips/-grid machine runs the workloads on a small chip-spanning member
// set (see smokeMembers) instead of 8 cores of the paper chip.
func (s suite) cells(topo *scc.Config) []cell {
	members := core.FirstN(8)
	if topo != nil {
		members = smokeMembers(*topo)
	}
	var cells []cell
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		for _, w := range checkedApps {
			cells = append(cells, checked(fmt.Sprintf("%-9s under %-12v", w.name, model), func() *core.Observation {
				scfg := svm.DefaultConfig(model)
				m, err := core.NewMachine(core.Options{
					Topology: topo,
					SVM:      &scfg,
					Members:  members,
					Observe:  s.inst,
				})
				if err != nil {
					panic(err) // parseTopology validated the topology; members come from it
				}
				app := w.build()
				m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
				return m.Observability()
			}))
		}
	}
	if topo == nil {
		cells = append(cells, s.paperCells()...)
	}
	return cells
}

// checked is a cell that runs one instrumented simulation and reports its
// checker's verdict under label.
func checked(label string, run func() *core.Observation) cell {
	var obs *core.Observation
	return cell{run: func() { obs = run() }, report: func() bool { return verdict(label, obs) }}
}

// svmApp is a shipped application; every member core runs its Main.
type svmApp interface{ Main(*svm.Handle) }

// checkedApps are the application cells of -check and -sanitize. Each cell
// builds its own instance.
var checkedApps = []struct {
	name  string
	build func() svmApp
}{
	{"laplace", func() svmApp {
		return laplace.NewSVM(laplace.Params{Rows: 32, Cols: 32, Iters: 10, TopTemp: 100}, laplace.SVMOptions{})
	}},
	{"matmul", func() svmApp { return matmul.New(matmul.Params{N: 16}) }},
	{"taskfarm", func() svmApp { return taskfarm.New(taskfarm.DefaultParams()) }},
}

// checkDomains runs barrier-ordered traffic in two independent coherency
// domains under one chip-wide checker.
func checkDomains() cell {
	return checked("domains  (2 independent)  ", func() *core.Observation {
		ds, err := core.NewDomains(nil, core.Instrumentation{Race: true}, []core.DomainSpec{
			{Members: []int{0, 1, 2, 3}},
			{Members: []int{24, 25, 30, 31}},
		})
		if err != nil {
			panic(err) // fixed domains of the paper chip
		}
		first := []int{0, 24}
		ds.RunAll(func(domain int, env *core.Env) {
			base := env.SVM.Alloc(4096)
			if env.K.ID() == first[domain] {
				env.Core().Store64(base, uint64(domain+1))
			}
			env.SVM.Barrier()
			env.Core().Load64(base)
		})
		return ds.Observability()
	})
}

// perturbationCells enforce the observability contract on every cell of
// bench.Cells and on the kvstore: a run with tracing, race checking, the
// sanitizer suite, metrics and the profiler all enabled must reproduce the
// uninstrumented record bit for bit. So must a kvstore run with a
// present-but-disabled fault injector (empty schedule, hardening off).
func perturbationCells() []cell {
	inst := core.Instrumentation{
		TraceCapacity: 1 << 14,
		Race:          true,
		Sanitize:      true,
		Metrics:       true,
		Profile:       &profile.Config{},
	}
	none := core.Instrumentation{}
	sizes := bench.Sizes{Rounds: 50, Fig9: bench.PaperFig9(2)}
	var cells []cell
	for _, c := range bench.Cells {
		cells = append(cells, zeroPerturbation(c.Name, func() (any, any) {
			plain, _, _ := c.Run(sizes, none)
			observed, _, _ := c.Run(sizes, inst)
			return plain, observed
		}))
	}
	// A kvstore run's fingerprint is its record, audit checksum and end
	// time. (KVReport holds slices, so compare that, not the struct.)
	kv := func(fc *faults.Config, observers core.Instrumentation) any {
		kp := kvstore.DefaultParams()
		kp.Requests = 2000
		r, _ := bench.KVCell(kp, scc.Grid(4, 4, 1), false, fc, observers)
		return [3]any{r.Run, r.KV.Checksum, r.EndUS}
	}
	disabled := &faults.Config{Seed: 3, NoHarden: true}
	return append(cells,
		zeroPerturbation("faults", func() (any, any) { return kv(nil, none), kv(disabled, none) }),
		zeroPerturbation("kvstore", func() (any, any) { return kv(nil, none), kv(nil, inst) }))
}

// zeroPerturbation is a cell whose run returns a plain record and one that
// must equal it bit for bit.
func zeroPerturbation(name string, run func() (plain, observed any)) cell {
	var plain, observed any
	return cell{
		run: func() { plain, observed = run() },
		report: func() bool {
			if plain == observed {
				fmt.Printf("  zero-perturbation %-8s  ok (instrumented run bit-identical)\n", name)
				return true
			}
			fmt.Printf("  zero-perturbation %-8s  FAILED:\n    plain    = %+v\n    observed = %+v\n",
				name, plain, observed)
			return false
		},
	}
}

// sanitizeHarnesses runs the mail cells of bench.Cells sanitized: the
// ping-pongs never touch the SVM window, so a clean verdict here proves the
// checker does not misfire on private or MPB traffic.
func sanitizeHarnesses() []cell {
	var cells []cell
	for _, c := range bench.Cells {
		if c.Mail {
			cells = append(cells, checked(fmt.Sprintf("%-9s harness      ", c.Name), func() *core.Observation {
				_, obs, _ := c.Run(bench.Sizes{Rounds: 50}, core.Instrumentation{Sanitize: true})
				return obs
			}))
		}
	}
	return cells
}

// verdict prints one cell's line from whichever checker obs carries, plus
// the checker's report when it found anything.
func verdict(label string, obs *core.Observation) bool {
	var k interface {
		Clean() bool
		Dynamic() uint64
		Report(io.Writer)
	}
	reported, bad := 0, "RACES"
	if r := obs.Race(); r != nil {
		k, reported = r, len(r.Races())
	} else {
		san := obs.San()
		k, reported, bad = san, len(san.Findings()), "FINDINGS"
	}
	if k.Clean() {
		fmt.Printf("  %s  ok (%d reported, %d observed)\n", label, reported, k.Dynamic())
		return true
	}
	fmt.Printf("  %s  %s: %d observation(s)\n", label, bad, k.Dynamic())
	k.Report(os.Stdout)
	return false
}
