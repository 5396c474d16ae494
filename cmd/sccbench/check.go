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
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// suite is one whole-workload checker: the happens-before race checker
// (-check) or the sanitizer suite (-sanitize: shadow memory over the SVM
// window, Eraser-style locksets and the lock-order graph).
type suite struct {
	tool, title, clean string
	inst               core.Instrumentation
	paperCells         []func(io.Writer) bool // cells defined on the paper chip only
}

var raceSuite = suite{
	tool:       "racecheck",
	title:      "happens-before analysis of the shipped workloads",
	clean:      "all workloads race-free",
	inst:       core.Instrumentation{Race: true},
	paperCells: []func(io.Writer) bool{checkDomains, checkPerturbation},
}

var sanSuite = suite{
	tool:       "sancheck",
	title:      "shadow-memory, lockset and lock-order analysis of the shipped workloads",
	clean:      "all workloads clean",
	inst:       core.Instrumentation{Sanitize: true},
	paperCells: []func(io.Writer) bool{sanitizeHarnesses},
}

// run executes every shipped workload under both consistency models
// with the suite's checker enabled, then the suite's paper-chip cells, and
// reports the verdicts. The cells are independent simulations, so they fan
// out across the host pool; each cell writes its report into its own buffer
// and the buffers print in matrix order, so the output is identical at any
// parallelism. It returns false if any cell reported a finding. A
// -chips/-grid machine runs the application cells with a small
// chip-spanning member set (see smokeMembers) instead of 8 cores of the
// paper chip.
func (s suite) run(o *options) bool {
	fmt.Printf("%s: %s\n", s.tool, s.title)
	members := core.FirstN(8)
	if o.topo != nil {
		members = smokeMembers(*o.topo)
		fmt.Printf("%s: %d chip(s), %d cores activated\n", s.tool, o.topo.Normalized().Chips, len(members))
	}
	var cells []func(io.Writer) bool
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		for _, w := range checkedApps {
			cells = append(cells, func(out io.Writer) bool {
				return checkOne(out, s, w.name, model, o.topo, members, w.build())
			})
		}
	}
	if o.topo == nil {
		cells = append(cells, s.paperCells...)
	}

	outs := make([]bytes.Buffer, len(cells))
	oks := make([]bool, len(cells))
	runner.New(o.parallel).Run(len(cells), func(i int) { oks[i] = cells[i](&outs[i]) })

	ok := true
	for i := range cells {
		os.Stdout.Write(outs[i].Bytes())
		ok = ok && oks[i]
	}
	if ok {
		fmt.Printf("%s: %s\n", s.tool, s.clean)
	}
	return ok
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

func checkOne(out io.Writer, s suite, name string, model svm.Model, topo *scc.Config, members []int, app svmApp) bool {
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		Topology: topo,
		SVM:      &scfg,
		Members:  members,
		Observe:  s.inst,
	})
	if err != nil {
		fmt.Fprintf(out, "%s: %s under %v: %v\n", s.tool, name, model, err)
		return false
	}
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	return verdict(out, fmt.Sprintf("%-9s under %-12v", name, model), m.Observability())
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
	return verdict(out, "domains  (2 independent)  ", obs)
}

// checkPerturbation enforces the observability contract on representative
// cells of every figure harness: a run with tracing, race checking, the
// sanitizer suite, metrics and the profiler all enabled must reproduce the
// uninstrumented result bit for bit.
func checkPerturbation(out io.Writer) bool {
	inst := core.Instrumentation{
		TraceCapacity: 1 << 14,
		Race:          true,
		Sanitize:      true,
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

	cfg := bench.PaperFig9(2)
	p9 := bench.Fig9RunSVM(cfg, svm.Strong, 2)
	o9, _ := bench.Fig9Observed(cfg, svm.Strong, 2, inst)
	verdict("fig9", p9, o9)

	// A present-but-disabled fault injector (empty schedule, hardening off)
	// must also reproduce the plain run bit for bit.
	f9, _ := bench.Fig9ChaosMembers(cfg, svm.Strong, core.FirstN(2), &faults.Config{Seed: 3, NoHarden: true})
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

// sanitizeHarnesses runs representative figure-harness cells sanitized: the
// mailbox ping-pongs never touch the SVM window, so a clean verdict here
// proves the checker does not misfire on private or MPB traffic.
func sanitizeHarnesses(out io.Writer) bool {
	inst := core.Instrumentation{Sanitize: true}
	_, o6 := bench.Fig6Observed(50, inst)
	ok := verdict(out, "fig6      harness      ", o6)
	_, o7 := bench.Fig7Observed(50, 8, inst)
	return verdict(out, "fig7      harness      ", o7) && ok
}

// verdict prints one cell's line from whichever checker obs carries, plus
// the checker's report when it found anything.
func verdict(out io.Writer, label string, obs *core.Observation) bool {
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
		fmt.Fprintf(out, "  %s  ok (%d reported, %d observed)\n", label, reported, k.Dynamic())
		return true
	}
	fmt.Fprintf(out, "  %s  %s: %d observation(s)\n", label, bad, k.Dynamic())
	k.Report(out)
	return false
}
