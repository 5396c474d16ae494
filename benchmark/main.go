// Command benchmark is the repository's benchmark: six workloads that load
// different layers of the simulator, measured on two clocks that are never
// mixed. Simulated time (µs of the modelled SCC) is the product and must
// repeat bit for bit; host time, allocation and memory are the cost of
// producing it and are reported as medians over repeated trials. See
// README.md for the metric glossary.
//
//	bash benchmark/run.sh --workload kv_serve --seed 1 --seconds 10 --trace 0
//
// prints a header line (environment, inputs, raw per-trial values) and, as
// the last line of standard output, the result object BENCHMARK.json
// describes. --trace 1 prints the per-layer metrics instead. --repeat K runs
// every workload in K sets of fresh processes and compares the sets against
// the bounds.
//
//metalsvm:host-parallel — measures host wall-clock; nothing here is simulated code
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"metalsvm/internal/bench"
)

// processStart is read as early as package initialisation allows; set-up
// time is measured from it.
var processStart = time.Now()

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setupProcs is how many fresh processes repeat the set-up so setup_s
	// is a median of cold starts (this process's own is one more sample).
	setupProcs int
	outDir     string
	sizes      sizes
}

// minTrials is the fewest timed trials a run reports a median over,
// whatever --seconds says.
const minTrials = 3

// cost is the host side of one trial.
type cost struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
}

// header is the first line of output: where and on what the numbers were
// measured, and every raw value behind the medians.
type header struct {
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Commit     string    `json:"commit"`
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Inputs     string    `json:"inputs"`
	Trials     int       `json:"trials"`
	SetupS     []float64 `json:"setup_s"`
	Costs      []cost    `json:"trial_costs"`
	SimUS      float64   `json:"sim_us"`
	Errors     []string  `json:"errors,omitempty"`
}

// result is the last line of output, in the shape BENCHMARK.json fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var setupOnly bool
	var repeat, seeds int
	flag.StringVar(&o.workload, "workload", "", "one of "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the timed trials (or the traced passes) run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up, print the set-up seconds and exit (what the parent run starts to sample setup_s)")
	flag.IntVar(&repeat, "repeat", 0, "run every workload (or the one named) in this many sets of fresh processes and hold the sets to BENCHMARK.json's bounds")
	flag.IntVar(&seeds, "seeds", 1, "with -repeat: runs per workload and set, each on its own seed")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory a traced run writes its spans to")
	flag.Parse()
	o.trace = *trace != 0
	if !o.trace {
		o.setupProcs = 2 // setup_s is an end-to-end metric only
	}
	o.sizes = defaultSizes()

	if err := checkHost(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if repeat > 0 {
		os.Exit(runRepeat(repeat, seeds, o))
	}
	w, err := newWorkload(o.workload, o.seed, o.sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if setupOnly {
		if out := warmUp(w); out.err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", out.err)
			os.Exit(1)
		}
		fmt.Println(time.Since(processStart).Seconds())
		return
	}
	h, r, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(h) // stdout; a failed write shows as a missing result line
	_ = enc.Encode(r)
	os.Exit(exitCode(r))
}

// exitCode is the process's exit status for a result: non-zero when any
// simulation failed to verify or to repeat.
func exitCode(r result) int {
	if !r.Correct {
		return 1
	}
	return 0
}

// checkHost refuses a configuration whose numbers would not mean what the
// header says: more Ps than processors time-slices the proc hand-off.
func checkHost() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d available processors", p, n)
	}
	return nil
}

// warmUp ends the set-up: with the inputs generated, it runs one cold
// simulation, after which the first timed trial could begin.
func warmUp(w *workload) outcome {
	// One simulation in flight: the sweep entry points fan cells across a
	// host pool by default, which would time the pool, not the simulator.
	bench.SetParallelism(1)
	return w.trial()
}

// run measures one workload and returns the two output lines.
func run(w *workload, o options) (header, result, error) {
	rec := &recorder{current: -1}
	h := header{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit(),
		Workload: w.name, Seed: o.seed, Inputs: w.inputs,
	}

	end := rec.begin("warm-up trial")
	first := warmUp(w)
	end()
	h.SetupS = []float64{time.Since(processStart).Seconds()}
	for i := 0; i < o.setupProcs; i++ {
		s, err := setupInFreshProcess(o)
		if err != nil {
			return h, result{}, err
		}
		h.SetupS = append(h.SetupS, s)
	}

	t := tally{first: first}
	t.add(first)

	var metrics map[string]metric
	if o.trace {
		metrics = tracedRun(w, o, rec, &t, &h)
	} else {
		start := time.Now()
		for len(h.Costs) < minTrials || time.Since(start).Seconds() < o.seconds {
			end := rec.begin("timed trial")
			out, c := timeTrial(w.trial)
			end()
			t.add(out)
			h.Costs = append(h.Costs, c)
		}
		metrics = map[string]metric{
			"host_wall_s":   {medianOf(h.Costs, func(c cost) float64 { return c.WallS }), "s"},
			"host_alloc_mb": {medianOf(h.Costs, func(c cost) float64 { return c.AllocMB }), "MB"},
			"setup_s":       {median(h.SetupS), "s"},
		}
	}
	h.Trials = len(h.Costs)
	h.SimUS = first.simUS
	h.Errors = t.errors
	return h, result{Correct: len(t.errors) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// tally counts the simulations run and those that failed: a trial fails
// when its outputs do not verify or differ from the first trial's. The
// simulated side of a trial is a pure function of the inputs, so any
// difference is a failure, never noise. (Simulated KV requests that are
// shed or expire are a result of the model, reported as
// kvstore.failed_share, not a failure of the simulator.)
type tally struct {
	first             outcome
	attempted, failed uint64
	errors            []string
}

func (t *tally) add(o outcome) {
	if o.err != nil {
		t.check(false, "%v", o.err)
		return
	}
	t.check(o.simUS == t.first.simUS && reflect.DeepEqual(o.sim, t.first.sim),
		"simulated results differ between trials: %v µs then %v µs", t.first.simUS, o.simUS)
}

// check counts one simulation and, when it is not ok, its failure.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.errors = append(t.errors, fmt.Sprintf(format, args...))
	}
}

// timeTrial runs one trial and measures what it cost the host. The
// collection before it starts every trial from the same heap state.
func timeTrial(trial func() outcome) (outcome, cost) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	out := trial()
	wall := time.Since(start).Seconds()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return out, cost{WallS: wall, CPUS: cpu1 - cpu0, AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
}

// rusage is getrusage for this process, which cannot fail.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// setupInFreshProcess starts this binary again with --setup-only and
// returns the set-up seconds it reports, so setup_s also samples cold
// starts that no earlier trial in the same process has warmed.
func setupInFreshProcess(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	var s float64
	if _, err := fmt.Sscan(string(out), &s); err != nil {
		return 0, fmt.Errorf("set-up sample printed %q: %w", out, err)
	}
	return s, nil
}

// commit names the source the binary was built from, as the go tool
// stamped it; "unknown" outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return math.NaN()
}

func medianOf(cs []cost, f func(cost) float64) float64 {
	v := make([]float64, len(cs))
	for i, c := range cs {
		v[i] = f(c)
	}
	return median(v)
}
