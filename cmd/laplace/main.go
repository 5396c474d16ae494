// Command laplace runs the paper's heat-distribution benchmark (Section
// 7.2.2) standalone, in any of its variants, with optional protocol
// tracing.
//
//	laplace -cores 8 -model lazy -rows 256 -cols 128 -iters 100
//	laplace -cores 4 -model strong -trace        # plus a protocol summary
//	laplace -model ircce                         # the message-passing baseline
//
// The result is always verified bit-exactly against the serial reference.
package main

import (
	"flag"
	"fmt"
	"os"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/trace"
)

func main() {
	rows := flag.Int("rows", 128, "grid rows (paper: 1024)")
	cols := flag.Int("cols", 128, "grid columns (paper: 512)")
	iters := flag.Int("iters", 100, "Jacobi iterations (paper: 5000)")
	cores := flag.Int("cores", 8, "number of cores (1..48)")
	model := flag.String("model", "lazy", "variant: strong | lazy | ircce")
	doTrace := flag.Bool("trace", false, "record and summarize protocol events")
	doStats := flag.Bool("stats", false, "print the end-of-run metrics snapshot (engine, mesh, cache, mailbox and SVM counters)")
	flag.Parse()

	p := laplace.Params{Rows: *rows, Cols: *cols, Iters: *iters, TopTemp: 100}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *cores < 1 || *cores > 48 {
		fmt.Fprintln(os.Stderr, "laplace: cores must be 1..48")
		os.Exit(2)
	}

	chipCfg := scc.DefaultConfig()
	chipCfg.PrivateMemPerCore = 24 << 20
	chipCfg.SharedMem = 16 << 20

	var tracer *trace.Buffer
	if *doTrace {
		tracer = trace.NewBuffer(1 << 18)
	}

	var res laplace.Result
	var obs *core.Observation
	switch *model {
	case "strong", "lazy":
		m := svm.Strong
		if *model == "lazy" {
			m = svm.LazyRelease
		}
		scfg := svm.DefaultConfig(m)
		machine, err := core.NewMachine(core.Options{
			Topology: &chipCfg,
			SVM:      &scfg,
			Members:  core.FirstN(*cores),
			Observe:  core.Instrumentation{Metrics: *doStats},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		machine.Chip.Tracer().SetRing(tracer)
		app := laplace.NewSVM(p, laplace.SVMOptions{})
		machine.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		res = app.Result()
		obs = machine.Observability()
	case "ircce":
		b, err := core.NewBaseline(&chipCfg, core.FirstN(*cores))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b.Chip.Tracer().SetRing(tracer)
		// No kernels or SVM here: the snapshot holds the engine and mesh counters.
		obs = core.Observe(core.Instrumentation{Metrics: *doStats}, b.Chip, nil, nil)
		app := laplace.NewBaseline(p, b.Comm)
		b.Run(func(rank int, c *cpu.Core) { app.Main(rank, c) })
		obs.Finish()
		res = app.Result()
	default:
		fmt.Fprintf(os.Stderr, "laplace: unknown model %q\n", *model)
		os.Exit(2)
	}

	fmt.Printf("laplace %dx%d, %d iterations, %d cores, %s:\n",
		p.Rows, p.Cols, p.Iters, *cores, *model)
	fmt.Printf("  simulated loop time: %.3f ms\n", res.Elapsed.Microseconds()/1000)
	if res.Faults > 0 {
		fmt.Printf("  page faults:         %d\n", res.Faults)
	}
	want := laplace.ReferenceChecksum(p)
	status := "MATCHES serial reference bit-exactly"
	if res.Checksum != want {
		status = fmt.Sprintf("MISMATCH: %v, want %v", res.Checksum, want)
	}
	fmt.Printf("  checksum:            %.6f (%s)\n", res.Checksum, status)
	if res.Checksum != want {
		os.Exit(1)
	}

	if *doStats {
		fmt.Println("\nmetrics:")
		obs.MetricsSnapshot().WriteText(os.Stdout)
	}
	if tracer != nil {
		fmt.Println("\nprotocol trace:")
		trace.WriteSummary(os.Stdout, trace.Summarize(tracer.Events()))
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf("  (%d older events dropped from the ring)\n", d)
		}
	}
}
