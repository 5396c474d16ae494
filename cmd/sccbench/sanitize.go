package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"metalsvm/internal/bench"
	"metalsvm/internal/bench/runner"
	"metalsvm/internal/core"
	"metalsvm/internal/sancheck"
	"metalsvm/internal/svm"
)

// runSanitize executes every shipped workload under both consistency models
// with the sanitizer suite enabled — shadow memory over the SVM window,
// Eraser-style locksets and the lock-order graph — and reports the verdicts.
// Representative mailbox harness cells (fig6/fig7) run sanitized too, proving
// the checkers stay quiet on non-SVM traffic. Cells are independent simulations
// and fan out across the host pool exactly like -check; each writes into its
// own buffer, so output order is stable at any parallelism. Returns false if
// any cell reported a finding.
func runSanitize(workers int) bool {
	fmt.Println("sancheck: shadow-memory, lockset and lock-order analysis of the shipped workloads")
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
				return sanitizeOne(out, name, model, core.FirstN(8), main())
			}})
		}
	}
	cells = append(cells, &cell{run: sanitizeHarnesses})

	p := runner.New(workers)
	p.Run(len(cells), func(i int) { cells[i].ok = cells[i].run(&cells[i].out) })

	ok := true
	for _, c := range cells {
		os.Stdout.Write(c.out.Bytes())
		ok = ok && c.ok
	}
	if ok {
		fmt.Println("sancheck: all workloads clean")
	}
	return ok
}

func sanitizeOne(out io.Writer, name string, model svm.Model, members []int, main func(*core.Env)) bool {
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		SVM:     &scfg,
		Members: members,
		Observe: core.Instrumentation{Sanitize: &sancheck.Config{}},
	})
	if err != nil {
		fmt.Fprintf(out, "sancheck: %s under %v: %v\n", name, model, err)
		return false
	}
	m.RunAll(main)
	return sanVerdict(out, fmt.Sprintf("%-9s under %-12v", name, model), m.Observability().San())
}

// sanitizeHarnesses runs representative figure-harness cells sanitized: the
// mailbox ping-pongs never touch the SVM window, so a clean verdict here
// proves the checker does not misfire on private or MPB traffic.
func sanitizeHarnesses(out io.Writer) bool {
	inst := core.Instrumentation{Sanitize: &sancheck.Config{}}
	ok := true
	_, o6 := bench.Fig6Observed(50, inst)
	ok = sanVerdict(out, "fig6      harness      ", o6.San()) && ok
	_, o7 := bench.Fig7Observed(50, 8, inst)
	ok = sanVerdict(out, "fig7      harness      ", o7.San()) && ok
	return ok
}

func sanVerdict(out io.Writer, label string, k *sancheck.Checker) bool {
	if k.Clean() {
		fmt.Fprintf(out, "  %s  ok (%d reported, %d observed)\n", label, len(k.Findings()), k.Dynamic())
		return true
	}
	fmt.Fprintf(out, "  %s  FINDINGS: %d observation(s)\n", label, k.Dynamic())
	k.Report(out)
	return false
}
