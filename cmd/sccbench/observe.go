package main

import (
	"fmt"
	"os"
	"strings"

	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/profile"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// instrumentation translates -metrics, -profile and -perfetto into an
// Instrumentation. A Perfetto export implies the profiler (timeline spans)
// and tracing (protocol instants and flow arrows).
func instrumentation(o *options) core.Instrumentation {
	inst := core.Instrumentation{Metrics: o.metrics}
	if o.profile || o.perfetto != "" {
		inst.Profile = &profile.Config{}
	}
	if o.perfetto != "" {
		inst.TraceCapacity = 1 << 16
	}
	return inst
}

// runObserve runs one representative instrumented cell of the harness the
// command names, or of each under "all", and renders the requested
// artifacts. The instrumented runs are bit-identical to the plain harness
// cells (enforced by -check), so the profiles and metrics describe exactly
// the runs the tables report.
func runObserve(o *options) int {
	inst := instrumentation(o)
	type harness struct {
		name string
		run  func() (string, *core.Observation)
	}
	var selected []harness
	for _, h := range []harness{
		{"fig6", func() (string, *core.Observation) {
			r, obs := bench.Fig6Cell(o.rounds, nil, inst)
			return fmt.Sprintf("IPI ping-pong at maximum mesh distance: %.3f us half round trip", r.US), obs
		}},
		{"fig7", func() (string, *core.Observation) {
			r, obs := bench.Fig7Cell(o.rounds, 48, nil, inst)
			return fmt.Sprintf("polling ping-pong with 48 activated cores: %.3f us half round trip", r.US), obs
		}},
		{"table1", func() (string, *core.Observation) {
			res, obs := bench.Table1(svm.Strong, inst)
			return fmt.Sprintf("strong-model overhead benchmark: map %.3f us, retrieve %.3f us",
				res.MapUS, res.RetrieveUS), obs
		}},
		{"fig9", func() (string, *core.Observation) {
			r, obs := bench.Fig9Cell(bench.PaperFig9(o.iters), svm.Strong, core.Options{Members: core.FirstN(8), Observe: inst})
			return fmt.Sprintf("Laplace on 8 cores, strong model: %.1f us iteration loop", r.US), obs
		}},
		{"repldir", func() (string, *core.Observation) {
			r, obs := bench.Fig9Cell(bench.PaperFig9(o.iters), svm.Strong, core.Options{
				Members: core.FirstN(8), Observe: inst, ReplicatedDirectory: &repldir.Config{},
			})
			return fmt.Sprintf("Laplace on 8 workers, strong model, replicated ownership directory: %.1f us iteration loop", r.US), obs
		}},
	} {
		if o.cmd == "all" || o.cmd == h.name {
			selected = append(selected, h)
		}
	}

	for i, h := range selected {
		if i > 0 {
			fmt.Println()
		}
		desc, obs := h.run()
		fmt.Printf("%s: %s\n", h.name, desc)
		if o.metrics {
			fmt.Println("metrics:")
			obs.MetricsSnapshot().WriteText(os.Stdout)
		}
		if o.profile {
			fmt.Println("simulated-time profile:")
			obs.ProfileReport().WriteText(os.Stdout)
		}
		if o.perfetto != "" {
			path := o.perfetto
			if len(selected) > 1 {
				path = suffixPath(path, h.name)
			}
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
				return 1
			}
			err = obs.WritePerfetto(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
				return 1
			}
			fmt.Printf("perfetto trace written to %s (load at ui.perfetto.dev)\n", path)
		}
	}
	return 0
}

// suffixPath inserts "-name" before the path's extension:
// out.json -> out-fig6.json.
func suffixPath(path, name string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "-" + name + path[i:]
	}
	return path + "-" + name
}
