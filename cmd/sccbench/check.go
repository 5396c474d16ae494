package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/bench"
	"metalsvm/internal/bench/runner"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/profile"
	"metalsvm/internal/racecheck"
	"metalsvm/internal/sancheck"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// runCheck executes every shipped workload under both consistency models
// with the happens-before race checker enabled and reports the verdicts.
// The cells of the matrix are independent simulations, so they fan out
// across the host pool; each cell writes its report into its own buffer
// and the buffers print in matrix order, so the output is identical at any
// parallelism. It returns false if any workload raced. A non-nil topo runs
// the application cells on that machine with a small chip-spanning member
// set (see smokeMembers) instead of 8 cores of the paper chip.
func runCheck(workers int, topo *scc.Config) bool {
	fmt.Println("racecheck: happens-before analysis of the shipped workloads")
	members := core.FirstN(8)
	if topo != nil {
		members = smokeMembers(*topo)
		fmt.Printf("racecheck: %d chip(s), %d cores activated\n", topo.Normalized().Chips, len(members))
	}
	type cell struct {
		run func(io.Writer) bool
		out bytes.Buffer
		ok  bool
	}
	var cells []*cell
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		for _, w := range []struct {
			name string
			main func() func(*core.Env)
		}{
			{"laplace", laplaceMain},
			{"matmul", matmulMain},
			{"taskfarm", taskfarmMain},
		} {
			name, main, model := w.name, w.main, model
			cells = append(cells, &cell{run: func(out io.Writer) bool {
				return checkOne(out, name, model, topo, members, main())
			}})
		}
	}
	if topo == nil {
		// The domain and perturbation cells are defined on the paper chip.
		cells = append(cells, &cell{run: checkDomains})
		cells = append(cells, &cell{run: checkPerturbation})
	}

	p := runner.New(workers)
	p.Run(len(cells), func(i int) { cells[i].ok = cells[i].run(&cells[i].out) })

	ok := true
	for _, c := range cells {
		os.Stdout.Write(c.out.Bytes())
		ok = ok && c.ok
	}
	if ok {
		fmt.Println("racecheck: all workloads race-free")
	}
	return ok
}

func laplaceMain() func(*core.Env) {
	app := laplace.NewSVM(laplace.Params{Rows: 32, Cols: 32, Iters: 10, TopTemp: 100},
		laplace.SVMOptions{})
	return func(env *core.Env) { app.Main(env.SVM) }
}

func matmulMain() func(*core.Env) {
	app := matmul.New(matmul.Params{N: 16})
	return func(env *core.Env) { app.Main(env.SVM) }
}

func taskfarmMain() func(*core.Env) {
	app := taskfarm.New(taskfarm.DefaultParams())
	return func(env *core.Env) { app.Main(env.SVM) }
}

func checkOne(out io.Writer, name string, model svm.Model, topo *scc.Config, members []int, main func(*core.Env)) bool {
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		Topology: topo,
		SVM:      &scfg,
		Members:  members,
		Observe:  core.Instrumentation{Race: &racecheck.Config{}},
	})
	if err != nil {
		fmt.Fprintf(out, "racecheck: %s under %v: %v\n", name, model, err)
		return false
	}
	m.RunAll(main)
	return verdict(out, fmt.Sprintf("%-9s under %-12v", name, model), m.Race)
}

// checkDomains runs barrier-ordered traffic in two independent coherency
// domains under one chip-wide checker.
func checkDomains(out io.Writer) bool {
	ds, err := core.NewDomains(nil, []core.DomainSpec{
		{Members: []int{0, 1, 2, 3}},
		{Members: []int{24, 25, 30, 31}},
	})
	if err != nil {
		fmt.Fprintf(out, "racecheck: domains: %v\n", err)
		return false
	}
	k := ds.Observe(core.Instrumentation{Race: &racecheck.Config{}}).Race()
	first := []int{0, 24}
	ds.RunAll(func(domain int, env *core.Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == first[domain] {
			env.Core().Store64(base, uint64(domain+1))
		}
		env.SVM.Barrier()
		env.Core().Load64(base)
	})
	return verdict(out, "domains  (2 independent)  ", k)
}

// checkPerturbation enforces the observability contract on representative
// cells of every figure harness: a run with tracing, race checking, the
// sanitizer suite, metrics and the profiler all enabled must reproduce the
// uninstrumented result bit for bit.
func checkPerturbation(out io.Writer) bool {
	inst := core.Instrumentation{
		TraceCapacity: 1 << 14,
		Race:          &racecheck.Config{},
		Sanitize:      &sancheck.Config{},
		Metrics:       true,
		Profile:       &profile.Config{},
	}
	ok := true
	verdict := func(name string, plain, observed any) {
		if plain == observed {
			fmt.Fprintf(out, "  zero-perturbation %-8s  ok (instrumented run bit-identical)\n", name)
			return
		}
		fmt.Fprintf(out, "  zero-perturbation %-8s  FAILED:\n    plain    = %+v\n    observed = %+v\n",
			name, plain, observed)
		ok = false
	}

	p6, _ := bench.Fig6Observed(50, core.Instrumentation{})
	o6, _ := bench.Fig6Observed(50, inst)
	verdict("fig6", p6, o6)

	p7, _ := bench.Fig7Observed(50, 8, core.Instrumentation{})
	o7, _ := bench.Fig7Observed(50, 8, inst)
	verdict("fig7", p7, o7)

	t1 := bench.Table1(svm.Strong)
	t1o, _ := bench.Table1Observed(svm.Strong, inst)
	verdict("table1", t1, t1o)

	cfg := bench.QuickFig9(2)
	p9 := bench.Fig9RunSVM(cfg, svm.Strong, 2)
	o9, _ := bench.Fig9Observed(cfg, svm.Strong, 2, inst)
	verdict("fig9", p9, o9)

	// A present-but-disabled fault injector (empty schedule, hardening off)
	// must also reproduce the plain run bit for bit.
	f9, _ := bench.Fig9Chaos(cfg, svm.Strong, 2, &faults.Config{Seed: 3, NoHarden: true})
	verdict("faults", p9, f9.US)

	// The kvstore under full instrumentation must reproduce the plain run's
	// audit checksum and end time. (KVReport holds slices, so compare the
	// scalar fingerprint, not the struct.)
	kp := kvstore.DefaultParams()
	kp.Requests = 2000
	ktopo := scc.Grid(4, 4, 1)
	pk := bench.RunKV(kp, ktopo, nil, false)
	okv := bench.RunKVObserved(kp, ktopo, nil, false, inst)
	verdict("kvstore",
		[2]any{pk.KV.Checksum, pk.EndUS},
		[2]any{okv.KV.Checksum, okv.EndUS})
	return ok
}

func verdict(out io.Writer, label string, k *racecheck.Checker) bool {
	if k.Clean() {
		fmt.Fprintf(out, "  %s  ok (%d reported, %d observed)\n", label, len(k.Races()), k.Dynamic())
		return true
	}
	fmt.Fprintf(out, "  %s  RACES: %d observation(s)\n", label, k.Dynamic())
	k.Report(out)
	return false
}
