package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"metalsvm/internal/scc"
)

// tinySizes shrinks every workload so the whole set runs in seconds.
func tinySizes() sizes {
	return sizes{
		laplaceRows: 66, laplaceCols: 32, laplaceIters: 2,
		pingpongPages: 8, pingpongRounds: 3,
		fig7Rounds: 20, fig7Cores: 8,
		kvRequests: 600, kvCrashReqs: 600,
		scaleTopo: scc.MultiChip(2, scc.Grid(2, 2, 1)), scaleLaplaceIters: 1,
	}
}

func tinyOptions(trace bool) options {
	return options{seed: 7, seconds: 0, trace: trace, outDir: "", sizes: tinySizes()}
}

// benchmarkJSON is the part of the contract file at the repository root
// that the benchmark's output has to agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryWorkloadEmitsEveryMetric runs each workload small, untraced and
// traced: every metric BENCHMARK.json names must be there with its unit and
// a finite value, the end-to-end ones non-zero, and the two runs (like the
// trials inside each, which run itself checks) must agree on the simulated
// results.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %v", len(spec.Workloads), workloadNames)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			measure := func(trace bool) (header, result) {
				o := tinyOptions(trace)
				o.outDir = t.TempDir()
				w, err := newWorkload(name, o.seed, o.sizes)
				if err != nil {
					t.Fatal(err)
				}
				h, r, err := run(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("trace %v: correct %v, %d of %d failed: %v", trace, r.Correct, r.Failed, r.Attempted, h.Errors)
				}
				return h, r
			}

			plain, e2e := measure(false)
			if len(e2e.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%d end-to-end metrics printed, BENCHMARK.json names %d", len(e2e.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 || math.IsInf(got.Value, 0) || math.IsNaN(got.Value) {
					t.Errorf("end-to-end metric %s [%s]: got %+v (present %v)", m.Name, m.Unit, got, ok)
				}
			}

			h, layers := measure(true)
			if h.SimUS != plain.SimUS || h.SimUS <= 0 || layers.Metrics["sim.measured_us"].Value != h.SimUS {
				t.Errorf("simulated %v µs untraced, %v µs in the traced run, which reports %v",
					plain.SimUS, h.SimUS, layers.Metrics["sim.measured_us"].Value)
			}
			if len(layers.Metrics) != len(spec.PerLayer) {
				t.Errorf("%d per-layer metrics printed, BENCHMARK.json names %d", len(layers.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				got, ok := layers.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsInf(got.Value, 0) || math.IsNaN(got.Value) {
					t.Errorf("per-layer metric %s [%s]: got %+v (present %v)", m.Name, m.Unit, got, ok)
				}
			}
			if layers.Metrics["trace.sim_identical"].Value != 1 {
				t.Error("the instrumented pass did not reproduce the plain trial's simulated time")
			}
		})
	}
}

// TestSeedChangesInputs: the same seed gives the same inputs (the test above
// compares their simulated results), other seeds give others.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		inputs := map[string]bool{}
		for seed := uint64(1); seed <= 8; seed++ {
			w, err := newWorkload(name, seed, defaultSizes())
			if err != nil {
				t.Fatal(err)
			}
			inputs[w.inputs] = true
		}
		if len(inputs) < 4 {
			t.Errorf("%s: seeds 1..8 give only the inputs %v", name, inputs)
		}
	}
}

// TestFailedVerificationFailsTheRun is the negative control: a trial whose
// output does not verify (a wrong checksum, a failed audit), or whose
// simulated result differs from the first trial's, is counted as failed and
// makes the process exit non-zero.
func TestFailedVerificationFailsTheRun(t *testing.T) {
	for name, spoil := range map[string]func(o outcome, trial int) outcome{
		"wrong checksum": func(o outcome, trial int) outcome {
			if trial == 1 {
				o.err = errors.New("laplace checksum 1, reference 2")
			}
			return o
		},
		"nondeterministic": func(o outcome, trial int) outcome {
			if trial == 2 {
				o.simUS++
			}
			return o
		},
	} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload("laplace_lrc", 1, tinySizes())
			if err != nil {
				t.Fatal(err)
			}
			plain, trials := w.trial, 0
			w.trial = func() outcome {
				o := spoil(plain(), trials)
				trials++
				return o
			}
			h, r, err := run(w, tinyOptions(false))
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed != 1 || len(h.Errors) != 1 || exitCode(r) == 0 {
				t.Errorf("correct %v, failed %d, errors %v, exit code %d; want one failure and a non-zero exit",
					r.Correct, r.Failed, h.Errors, exitCode(r))
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", 1, tinySizes()); err == nil {
		t.Error("no error for an unknown workload")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 9.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.v); !reflect.DeepEqual([]float64{q1, q3}, []float64{c.q1, c.q3}) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}
