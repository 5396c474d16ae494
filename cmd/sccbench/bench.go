package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"

	"metalsvm/internal/bench"
	"metalsvm/internal/bench/runner"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/stats"
)

// benchReportFile is where -bench writes its machine-readable report.
const benchReportFile = "BENCH_sim.json"

// benchExperiment is one quick-configuration experiment the -bench mode
// runs. run must be a pure function of its configuration — the bench
// parallelism may not change its result; simUS converts that result to
// total simulated microseconds (for latency sweeps this is reconstructed
// from the reported averages).
type benchExperiment struct {
	name  string
	run   func() any
	simUS func(any) float64
}

func benchExperiments() []benchExperiment {
	const fig6Rounds = 50
	fig9Cfg := bench.PaperFig9(3)
	fig9Cfg.CoreCounts = []int{4, 8}
	return []benchExperiment{
		{
			name: "fig6",
			run:  func() any { return bench.Fig6(fig6Rounds) },
			simUS: func(v any) float64 {
				us := 0.0
				for _, p := range v.([]bench.Fig6Point) {
					us += (p.PollingUS + p.IPIUS) * fig6Rounds
				}
				return us
			},
		},
		{
			name: "table1",
			run: func() any {
				s, l := bench.Table1Both()
				return table1Results{Strong: s, Lazy: l}
			},
			simUS: func(v any) float64 {
				r := v.(table1Results)
				pages := float64(bench.Table1Bytes / pgtable.PageSize)
				us := 0.0
				for _, m := range []bench.Table1Result{r.Strong, r.Lazy} {
					us += m.AllocUS + (m.PhysAllocUS+m.MapUS+m.RetrieveUS)*pages
				}
				return us
			},
		},
		{
			name: "fig9-quick",
			run:  func() any { return bench.Fig9(fig9Cfg) },
			simUS: func(v any) float64 {
				us := 0.0
				for _, p := range v.([]bench.Fig9Point) {
					us += p.IRCCEUS + p.StrongUS + p.LazyUS
				}
				return us
			},
		},
	}
}

// benchSimRecord is one experiment's bit-exact simulated result: a pure
// function of the experiment configuration, identical on every machine and
// at every parallelism.
type benchSimRecord struct {
	Experiment  string  `json:"experiment"`
	SimulatedUS float64 `json:"simulated_us"`
}

// benchReport is the content of BENCH_sim.json. It holds bit-exact fields
// only, so regenerating it on any host reproduces the committed bytes; host
// time is benchmark/'s job (repeated trials, medians, spread).
type benchReport struct {
	Simulated []benchSimRecord `json:"simulated"`
}

// runBench runs each quick experiment serially and in parallel across
// simulations, verifies the two agree bit-exactly, prints the single-sample
// wall seconds, and writes the simulated results to path. With baseline set,
// the fresh results are first diffed bit-for-bit against the committed file
// (which is left untouched on mismatch, so the drift stays inspectable).
// Returns the process exit code.
func runBench(exps []benchExperiment, path string, workers int, baseline bool) int {
	fmt.Printf("sccbench -bench: %d worker(s) on GOMAXPROCS=%d\n",
		runner.New(workers).Workers(), runtime.GOMAXPROCS(0))
	var report benchReport
	t := stats.NewTable("experiment", "simulated [us]", "serial [s]", "parallel [s]")
	exit := 0
	for _, ex := range exps {
		var serial, par any
		bench.SetParallelism(1)
		serialSec := runner.Wall(func() { serial = ex.run() }).Seconds()
		bench.SetParallelism(workers)
		parSec := runner.Wall(func() { par = ex.run() }).Seconds()

		sim := benchSimRecord{Experiment: ex.name, SimulatedUS: ex.simUS(serial)}
		report.Simulated = append(report.Simulated, sim)
		t.AddRow(ex.name, fmt.Sprint(sim.SimulatedUS), fmt.Sprintf("%.2f", serialSec),
			fmt.Sprintf("%.2f", parSec))
		if !reflect.DeepEqual(serial, par) {
			fmt.Fprintf(os.Stderr, "sccbench -bench: %s: parallel run DIVERGES from the serial run\n", ex.name)
			exit = 1
		}
	}

	fmt.Print(t)
	if exit == 0 {
		fmt.Println("both configurations bit-identical (serial, parallel runner)")
	}

	if baseline {
		if err := diffBaseline(report, path); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench -bench -baseline: %v\n", err)
			return 1
		}
		fmt.Printf("simulated results match the committed %s bit for bit\n", path)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench -bench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sccbench -bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return exit
}

// diffBaseline compares the fresh report's simulated microseconds against
// the baseline file at path. Simulated time is a pure function of the
// configuration, so the comparison is bit-exact.
func diffBaseline(report benchReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	prev := make(map[string]float64, len(base.Simulated))
	for _, r := range base.Simulated {
		prev[r.Experiment] = r.SimulatedUS
	}
	for _, r := range report.Simulated {
		want, ok := prev[r.Experiment]
		if !ok {
			return fmt.Errorf("experiment %q missing from baseline %s: regenerate and commit it",
				r.Experiment, path)
		}
		if r.SimulatedUS != want {
			return fmt.Errorf("experiment %q: simulated_us = %v, baseline says %v: "+
				"the simulation drifted; if intentional, regenerate %s with -bench and commit it",
				r.Experiment, r.SimulatedUS, want, path)
		}
	}
	return nil
}
