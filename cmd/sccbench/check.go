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
	paperCells: func() []cell { return []cell{checkDomains(), checkPerturbation()} },
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
		ds, err := core.NewDomains(nil, []core.DomainSpec{
			{Members: []int{0, 1, 2, 3}},
			{Members: []int{24, 25, 30, 31}},
		})
		if err != nil {
			panic(err) // fixed domains of the paper chip
		}
		obs := ds.Observe(core.Instrumentation{Race: true})
		first := []int{0, 24}
		ds.RunAll(func(domain int, env *core.Env) {
			base := env.SVM.Alloc(4096)
			if env.K.ID() == first[domain] {
				env.Core().Store64(base, uint64(domain+1))
			}
			env.SVM.Barrier()
			env.Core().Load64(base)
		})
		return obs
	})
}

// checkPerturbation enforces the observability contract on representative
// cells of every figure harness: a run with tracing, race checking, the
// sanitizer suite, metrics and the profiler all enabled must reproduce the
// uninstrumented result bit for bit.
func checkPerturbation() cell {
	type pair struct {
		name            string
		plain, observed any
	}
	var pairs []pair
	return cell{
		run: func() {
			inst := core.Instrumentation{
				TraceCapacity: 1 << 14,
				Race:          true,
				Sanitize:      true,
				Metrics:       true,
				Profile:       &profile.Config{},
			}
			none := core.Instrumentation{}
			p6, _ := bench.Fig6Cell(50, nil, none)
			o6, _ := bench.Fig6Cell(50, nil, inst)
			pairs = append(pairs, pair{"fig6", p6, o6})

			p7, _ := bench.Fig7Cell(50, 8, nil, none)
			o7, _ := bench.Fig7Cell(50, 8, nil, inst)
			pairs = append(pairs, pair{"fig7", p7, o7})

			t1p, _ := bench.Table1(svm.Strong, none)
			t1o, _ := bench.Table1(svm.Strong, inst)
			pairs = append(pairs, pair{"table1", t1p, t1o})

			cfg := bench.PaperFig9(2)
			p9, _ := bench.Fig9Cell(cfg, svm.Strong, core.Options{Members: core.FirstN(2)})
			o9, _ := bench.Fig9Cell(cfg, svm.Strong, core.Options{Members: core.FirstN(2), Observe: inst})
			pairs = append(pairs, pair{"fig9", p9, o9})

			// A present-but-disabled fault injector (empty schedule,
			// hardening off) must also reproduce the plain run bit for bit.
			f9, _ := bench.Fig9Cell(cfg, svm.Strong, core.Options{
				Members: core.FirstN(2), Faults: &faults.Config{Seed: 3, NoHarden: true},
			})
			pairs = append(pairs, pair{"faults", p9.US, f9.US})

			// The kvstore under full instrumentation must reproduce the
			// plain run's record, audit checksum and end time. (KVReport
			// holds slices, so compare that fingerprint, not the struct.)
			kp := kvstore.DefaultParams()
			kp.Requests = 2000
			ktopo := scc.Grid(4, 4, 1)
			pk, _ := bench.KVCell(kp, ktopo, false, nil, none)
			okv, _ := bench.KVCell(kp, ktopo, false, nil, inst)
			pairs = append(pairs, pair{"kvstore", [3]any{pk.Run, pk.KV.Checksum, pk.EndUS}, [3]any{okv.Run, okv.KV.Checksum, okv.EndUS}})
		},
		report: func() bool {
			ok := true
			for _, p := range pairs {
				if p.plain == p.observed {
					fmt.Printf("  zero-perturbation %-8s  ok (instrumented run bit-identical)\n", p.name)
					continue
				}
				fmt.Printf("  zero-perturbation %-8s  FAILED:\n    plain    = %+v\n    observed = %+v\n",
					p.name, p.plain, p.observed)
				ok = false
			}
			return ok
		},
	}
}

// sanitizeHarnesses runs representative figure-harness cells sanitized: the
// mailbox ping-pongs never touch the SVM window, so a clean verdict here
// proves the checker does not misfire on private or MPB traffic.
func sanitizeHarnesses() []cell {
	inst := core.Instrumentation{Sanitize: true}
	return []cell{
		checked("fig6      harness      ", func() *core.Observation { _, obs := bench.Fig6Cell(50, nil, inst); return obs }),
		checked("fig7      harness      ", func() *core.Observation { _, obs := bench.Fig7Cell(50, 8, nil, inst); return obs }),
	}
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
