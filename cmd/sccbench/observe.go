package main

import (
	"fmt"
	"os"
	"strings"

	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/profile"
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

// observeArgs are the command words -metrics, -profile and -perfetto
// accept: a cell of bench.Cells, or all of them.
func observeArgs() string {
	var words []string
	for _, c := range bench.Cells {
		words = append(words, c.Name)
	}
	return strings.Join(append(words, "all"), "|")
}

// runObserve runs the representative cell of bench.Cells that the command
// names, or each under "all", instrumented, and renders the requested
// artifacts. The instrumented runs are bit-identical to the plain cells
// (enforced by -check over the same table), so the profiles and metrics
// describe exactly the runs the tables report.
func runObserve(o *options) int {
	inst := instrumentation(o)
	sizes := bench.Sizes{Rounds: o.rounds, Fig9: bench.PaperFig9(o.iters)}
	var selected []bench.Cell
	for _, c := range bench.Cells {
		if o.cmd == "all" || o.cmd == c.Name {
			selected = append(selected, c)
		}
	}

	for i, c := range selected {
		if i > 0 {
			fmt.Println()
		}
		_, obs, desc := c.Run(sizes, inst)
		fmt.Printf("%s: %s\n", c.Name, desc)
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
				path = suffixPath(path, c.Name)
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
