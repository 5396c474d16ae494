package main

import (
	"fmt"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// outcome is what one trial of a workload produced. Everything in it is on
// the simulated clock or a count, so every trial of one (workload, seed)
// must return the same outcome bit for bit.
type outcome struct {
	// simUS is the simulated time of the measured region in µs.
	simUS float64
	// sim holds the workload's further simulated results, keyed by the
	// per-layer metric name they are reported under.
	sim map[string]float64
	// observedUS is the simulated µs the observed pass has to reproduce:
	// simUS, or the part of it that has an instrumented entry point.
	observedUS float64
	// err is the verification failure, nil when the outputs are correct.
	err error
}

// workload is one set of inputs, generated from the seed, and the two ways
// to run it: trial is what the timed runs execute, through the same entry
// points sccbench uses; observed runs the same simulation (or the cell of
// it that has an instrumented entry point) with instrumentation attached
// and returns the simulated time that must match trial's, bit for bit.
type workload struct {
	name string
	// inputs describes what the seed chose, for the output header.
	inputs string
	trial  func() outcome
	// observed returns the simulated µs that must equal the trial's
	// observedUS, and the observations.
	observed func(inst core.Instrumentation) (float64, []*core.Observation)
	// unit names the exact count that host time is divided by in the
	// "host cost per simulated unit" metrics; units computes it from the
	// trial outcome and the observed pass's counters.
	unit  string
	units func(o outcome, c counters) uint64
	// intra, where set, is trial under wave dispatch on that many host
	// workers: the evidence ROADMAP item 2 needs to keep or delete it.
	intra func(workers int) outcome
}

// counters reads one named counter summed over a pass's observations.
type counters func(name string) uint64

// sizes scales every workload. The defaults are frozen in BENCHMARK.json's
// workload descriptions; tests shrink them.
type sizes struct {
	laplaceRows    int
	laplaceCols    int
	laplaceIters   int
	pingpongPages  int
	pingpongRounds int
	fig7Rounds     int
	fig7Cores      int
	kvRequests     int
	kvCrashReqs    int
	scaleTopo      scc.Config
	// scaleLaplaceIters is the scale-out Laplace's iteration count (its
	// grid is always the paper's).
	scaleLaplaceIters int
}

func defaultSizes() sizes {
	return sizes{
		laplaceRows:    1024,
		laplaceCols:    512,
		laplaceIters:   8,
		pingpongPages:  256,
		pingpongRounds: 120,
		fig7Rounds:     2000,
		fig7Cores:      48,
		kvRequests:     60000,
		kvCrashReqs:    20000,
		scaleTopo:      scc.MultiChip(2, scc.Grid(8, 8, 2)),

		scaleLaplaceIters: 2,
	}
}

var workloadNames = []string{
	"laplace_lrc", "svm_pingpong", "mailbox_fig7", "kv_serve", "kv_crash", "scale_256",
}

// newWorkload generates the named workload's inputs from the seed.
func newWorkload(name string, seed uint64, sz sizes) (*workload, error) {
	rng := &seeded{seed}
	switch name {
	case "laplace_lrc":
		return laplaceLRC(rng, sz), nil
	case "svm_pingpong":
		return svmPingPong(rng, sz), nil
	case "mailbox_fig7":
		return mailboxFig7(rng, sz), nil
	case "kv_serve":
		return kvWorkload(name, seed, sz.kvRequests, false), nil
	case "kv_crash":
		return kvWorkload(name, seed, sz.kvCrashReqs, true), nil
	case "scale_256":
		return scaleOut(rng, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// seeded is a splitmix64 stream, so the inputs are a pure function of the
// seed on every Go version (and math/rand is banned module-wide by the
// simdet analyzer).
type seeded struct{ s uint64 }

func (r *seeded) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// intn returns a value in [0, n).
func (r *seeded) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a permutation of 0..n-1.
func (r *seeded) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// laplaceLRC is Fig 9's Laplace cell: the paper's grid on cores 0..15 under
// lazy release consistency. The seed picks only the boundary temperature
// (and with it the checksum the run is verified against): seeding the
// geometry was tried and dropped, because host time jumps by 20 % and more
// between neighbouring row counts (1024 rows: 1.4 s a trial, 1028: 1.2 s)
// and between core placements, which would drown the changes this workload
// is here to detect.
func laplaceLRC(rng *seeded, sz sizes) *workload {
	const cores = 16
	cfg := bench.PaperFig9(sz.laplaceIters)
	cfg.Params.Rows, cfg.Params.Cols = sz.laplaceRows, sz.laplaceCols
	cfg.Params.TopTemp = float64(50 + rng.intn(100))
	members := make([]int, cores)
	for i := range members {
		members[i] = i
	}
	want := laplace.ReferenceChecksum(cfg.Params)

	run := func(inst core.Instrumentation, intra int) (outcome, *core.Observation) {
		topo := cfg.Chip
		scfg := svm.DefaultConfig(svm.LazyRelease)
		m, err := core.NewMachine(core.Options{
			Topology: &topo, SVM: &scfg, Members: members,
			Observe: inst, IntraParallel: intra,
		})
		if err != nil {
			panic(err) // the topologies are fixed, so only a bug gets here
		}
		app := laplace.NewSVM(cfg.Params, laplace.SVMOptions{})
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		r := app.Result()
		us := r.Elapsed.Microseconds()
		o := outcome{simUS: us, observedUS: us}
		if r.Checksum != want {
			o.err = fmt.Errorf("laplace checksum %v, reference %v", r.Checksum, want)
		}
		return o, m.Observability()
	}
	return &workload{
		name: "laplace_lrc",
		inputs: fmt.Sprintf("%dx%d grid, top edge %v, %d iterations, cores 0..%d",
			cfg.Params.Rows, cfg.Params.Cols, cfg.Params.TopTemp, sz.laplaceIters, cores-1),
		trial: func() outcome { o, _ := run(core.Instrumentation{}, 1); return o },
		observed: func(inst core.Instrumentation) (float64, []*core.Observation) {
			o, obs := run(inst, 1)
			return o.simUS, []*core.Observation{obs}
		},
		unit:  "cpu.host_ns_per_access",
		units: func(_ outcome, c counters) uint64 { return c("cpu.loads") + c("cpu.stores") },
		intra: func(workers int) outcome { o, _ := run(core.Instrumentation{}, workers); return o },
	}
}

// svmPingPong loops Table 1's steps 3 and 4: two cores take turns writing
// the first word of every page of a shared region under the strong model,
// so every store migrates a page's ownership. The seed picks core 0's peer
// (Table 1 uses core 30; the distance moves the simulated time, not the
// work) and permutes the order in which the pages are visited.
func svmPingPong(rng *seeded, sz sizes) *workload {
	pages, rounds := sz.pingpongPages, sz.pingpongRounds
	pair := []int{0, 1 + rng.intn(47)}
	order := rng.perm(pages)

	run := func(inst core.Instrumentation) (outcome, *core.Observation) {
		topo := bench.ShrunkChip(scc.PaperSCC())
		scfg := svm.DefaultConfig(svm.Strong)
		m, err := core.NewMachine(core.Options{
			Topology: &topo, SVM: &scfg, Members: pair, Observe: inst,
		})
		if err != nil {
			panic(err) // the topologies are fixed, so only a bug gets here
		}
		final := make([]uint32, pages)
		end := m.RunAll(func(env *core.Env) {
			c := env.Core()
			base := env.SVM.Alloc(uint32(pages) * pgtable.PageSize)
			for r := 0; r < rounds; r++ {
				for _, turn := range pair {
					if turn == env.K.ID() {
						for _, p := range order {
							a := base + uint32(p)*pgtable.PageSize
							c.Store32(a, c.Load32(a)+1)
						}
					}
					env.SVM.Barrier()
				}
			}
			if env.K.ID() == pair[0] {
				for p := range final {
					final[p] = c.Load32(base + uint32(p)*pgtable.PageSize)
				}
			}
			env.SVM.Barrier()
		})
		o := outcome{simUS: end.Microseconds(), observedUS: end.Microseconds()}
		for p, v := range final {
			if v != uint32(2*rounds) {
				o.err = fmt.Errorf("page %d holds %d after %d rounds, want %d", p, v, rounds, 2*rounds)
				break
			}
		}
		return o, m.Observability()
	}
	return &workload{
		name:   "svm_pingpong",
		inputs: fmt.Sprintf("cores 0 and %d, %d pages in seed-permuted order, %d rounds", pair[1], pages, rounds),
		trial:  func() outcome { o, _ := run(core.Instrumentation{}); return o },
		observed: func(inst core.Instrumentation) (float64, []*core.Observation) {
			o, obs := run(inst)
			return o.simUS, []*core.Observation{obs}
		},
		unit:  "svm.host_ns_per_transfer",
		units: func(_ outcome, c counters) uint64 { return c("svm.owner_requests") },
	}
}

// mailboxFig7 is Fig 7's right edge: polling, IPI and IPI-with-noise
// ping-pong between core 0 and core 30 with every core activated. The seed
// adds up to 1 % to the round count; the geometry is the paper's.
func mailboxFig7(rng *seeded, sz sizes) *workload {
	rounds := sz.fig7Rounds + rng.intn(sz.fig7Rounds/100+1)
	n := sz.fig7Cores
	return &workload{
		name:   "mailbox_fig7",
		inputs: fmt.Sprintf("%d rounds, %d cores activated", rounds, n),
		trial: func() outcome {
			p := bench.Fig7(rounds, []int{n})[0]
			o := outcome{
				simUS: 2 * float64(rounds) * (p.PollingUS + p.IPIUS + p.IPINoiseUS),
				// Only the polling cell has an instrumented entry point.
				observedUS: p.PollingUS,
				sim: map[string]float64{
					"mailbox.polling_us":   p.PollingUS,
					"mailbox.ipi_us":       p.IPIUS,
					"mailbox.ipi_noise_us": p.IPINoiseUS,
				},
			}
			if !(p.PollingUS > 0 && p.IPIUS > 0 && p.IPINoiseUS > 0) {
				o.err = fmt.Errorf("fig7 latencies not all positive: %+v", p)
			}
			return o
		},
		observed: func(inst core.Instrumentation) (float64, []*core.Observation) {
			us, obs := bench.Fig7Observed(rounds, n, inst)
			return us, []*core.Observation{obs}
		},
		unit: "mailbox.host_ns_per_mail",
		// Three cells, a ping and a pong per round, rounds/4 warm-up rounds.
		units: func(outcome, counters) uint64 { return uint64(3 * 2 * (rounds + rounds/4)) },
	}
}

// kvWorkload is the KV store on a 16-core grid. The seed drives every
// client's request stream; with crash it also drives the fault stream of
// the "crash" preset, which kills the primary directory manager and a
// server mid-run over the replicated directory.
func kvWorkload(name string, seed uint64, requests int, crash bool) *workload {
	p := kvstore.DefaultParams()
	p.Requests = requests
	p.Seed = seed
	topo := scc.Grid(4, 4, 1)
	var fc *faults.Config
	if crash {
		spec, _ := faults.PresetSpec("crash")
		fc = &faults.Config{Seed: seed, Spec: spec}
	}

	// calEndUS is the calibrated run length RunKV resolved the crash markers
	// against, kept from the last trial so the observed pass can pin them
	// to the same times; it must then end when the armed run did.
	var calEndUS float64
	check := func(r bench.KVReport) outcome {
		kv := r.KV
		o := outcome{
			// Both simulations of a crash trial count: the calibration run
			// is part of what the trial simulates.
			simUS:      r.CalEndUS + r.EndUS,
			observedUS: r.EndUS,
			sim: map[string]float64{
				"kvstore.issued":             float64(kv.Issued),
				"kvstore.failed_share":       float64(kv.Shed+kv.Expired) / float64(kv.Issued),
				"kvstore.put_p50_ns":         float64(kv.LatPut.Quantile(0.50)),
				"kvstore.put_p99_ns":         float64(kv.LatPut.Quantile(0.99)),
				"kvstore.get_p99_ns":         float64(kv.LatGet.Quantile(0.99)),
				"kvstore.goodput_per_sim_s":  float64(kv.Applied) / r.EndUS * 1e6,
				"kvstore.min_window_goodput": float64(r.MinGoodput()),
			},
		}
		switch {
		case !r.Completed:
			o.err = fmt.Errorf("kvstore froze: %s", r.Watchdog)
		case !kv.AuditOK:
			o.err = fmt.Errorf("kvstore audit failed: %v", kv.AuditErrors)
		case kv.Issued != kv.Applied+kv.Shed+kv.Expired:
			o.err = fmt.Errorf("kvstore outcomes do not add up: %d issued, %d+%d+%d", kv.Issued, kv.Applied, kv.Shed, kv.Expired)
		case crash && r.Faults.Crashes == 0:
			o.err = fmt.Errorf("crash schedule crashed no core")
		}
		return o
	}
	what := "no faults, legacy directory"
	if crash {
		what = "crash preset seeded alike, replicated directory"
	}
	return &workload{
		name:   name,
		inputs: fmt.Sprintf("%d requests from seed %d, 4x4 grid, %s", requests, seed, what),
		trial: func() outcome {
			r := bench.RunKV(p, topo, fc, crash)
			calEndUS = r.CalEndUS
			return check(r)
		},
		observed: func(inst core.Instrumentation) (float64, []*core.Observation) {
			run := fc
			if crash {
				pinned := *fc
				pinned.Spec.Crashes = pinCrashes(fc.Spec.Crashes, calEndUS)
				run = &pinned
			}
			return runKVObserved(p, topo, run, crash, inst)
		},
		unit:  "kvstore.host_ns_per_request",
		units: func(o outcome, _ counters) uint64 { return uint64(o.sim["kvstore.issued"]) },
	}
}

// runKVObserved is bench.RunKV's machine with instrumentation attached and
// its observation returned (bench.RunKVObserved keeps the observation to
// itself).
func runKVObserved(p kvstore.Params, topo scc.Config, fc *faults.Config, withDir bool, inst core.Instrumentation) (float64, []*core.Observation) {
	chip := topo.Normalized()
	scfg := svm.DefaultConfig(svm.Strong)
	opts := core.Options{Topology: &chip, SVM: &scfg, Faults: fc, Observe: inst}
	if withDir {
		opts.ReplicatedDirectory = &repldir.Config{}
	} else {
		opts.Members = core.AllCores(chip)
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		panic(err)
	}
	app := kvstore.New(p)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	obs := []*core.Observation{m.Observability()}
	if m.Cluster.WatchdogFired() {
		return 0, obs
	}
	return app.Result().EndUS, obs
}

// pinCrashes resolves the crash preset's marker entries the way
// bench.RunKV does (primary manager at 30 % of the calibrated run, a server
// at 55 %). The observed pass must then reproduce RunKV's end time bit for
// bit, which is what keeps these two fractions honest.
func pinCrashes(crashes []faults.Crash, calEndUS float64) []faults.Crash {
	out := append([]faults.Crash(nil), crashes...)
	for i := range out {
		switch out[i].Core {
		case faults.CrashPrimaryManager:
			out[i].AtUS = 0.30 * calEndUS
		case faults.CrashLastWorker:
			out[i].AtUS = 0.55 * calEndUS
		}
	}
	return out
}

// scaleOut is the multi-chip completion run: Laplace and the task farm on
// every core of two 128-core chips joined by the inter-chip link. The seed
// adds up to 3 % to the farm's task count.
func scaleOut(rng *seeded, sz sizes) *workload {
	topo := sz.scaleTopo.Normalized()
	cores := len(core.AllCores(topo))
	p := bench.ScaleParams{
		Model: svm.LazyRelease, LaplaceIters: sz.scaleLaplaceIters,
		FarmTasks: 2*cores + rng.intn(cores/16+1),
	}
	return &workload{
		name:   "scale_256",
		inputs: fmt.Sprintf("%d cores on %d chips, %d Laplace iterations, %d farm tasks", cores, topo.Chips, p.LaplaceIters, p.FarmTasks),
		trial: func() outcome {
			r := bench.RunScale(topo, p)
			o := outcome{
				simUS:      r.LaplaceUS + r.FarmUS,
				observedUS: r.LaplaceUS + r.FarmUS,
				sim:        map[string]float64{"interchip.link_crossings": float64(r.LinkCrossings)},
			}
			if !r.LaplaceOK || !r.FarmOK {
				o.err = fmt.Errorf("scale-out verification: laplace ok %v, farm ok %v", r.LaplaceOK, r.FarmOK)
			}
			return o
		},
		observed: func(inst core.Instrumentation) (float64, []*core.Observation) {
			return runScaleObserved(topo, p, inst)
		},
		unit:  "core.host_ns_per_core",
		units: func(outcome, counters) uint64 { return uint64(cores) },
	}
}

// runScaleObserved is bench.RunScale's two simulations with instrumentation
// attached (RunScale has no instrumented variant).
func runScaleObserved(topo scc.Config, p bench.ScaleParams, inst core.Instrumentation) (float64, []*core.Observation) {
	members := core.AllCores(topo)
	scfg := svm.DefaultConfig(p.Model)
	boot := func() *core.Machine {
		chip := topo
		m, err := core.NewMachine(core.Options{Topology: &chip, SVM: &scfg, Members: members, Observe: inst})
		if err != nil {
			panic(err)
		}
		return m
	}
	lp := laplace.DefaultParams()
	lp.Iters = p.LaplaceIters
	lm := boot()
	lapp := laplace.NewSVM(lp, laplace.SVMOptions{})
	lm.RunAll(func(env *core.Env) { lapp.Main(env.SVM) })

	fp := taskfarm.DefaultParams()
	fp.Tasks = p.FarmTasks
	fm := boot()
	fapp := taskfarm.New(fp)
	fm.RunAll(func(env *core.Env) { fapp.Main(env.SVM) })

	us := lapp.Result().Elapsed.Microseconds() + fapp.Result().Elapsed.Microseconds()
	return us, []*core.Observation{lm.Observability(), fm.Observability()}
}
