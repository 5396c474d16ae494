package bench

import (
	"metalsvm/internal/core"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// Table1Result holds the paper's Table 1: average SVM overheads measured
// with the synthetic benchmark of Section 7.2.1, in microseconds. The
// benchmark runs on cores 0 and 30 over a 4 MiB collective allocation:
//
//  1. both cores call the collective allocation;
//  2. core 0 writes the first four bytes of every page (physical
//     allocation on first touch);
//  3. core 30 writes the first four bytes of every page (mapping an
//     already-allocated frame — under the strong model this includes
//     retrieving ownership);
//  4. core 0 writes again (under the strong model: pure access-permission
//     retrieval; a no-op under lazy release).
type Table1Result struct {
	Model svm.Model
	// AllocUS is the collective reservation of the whole region.
	AllocUS float64
	// PhysAllocUS is the mean first-touch frame allocation per page.
	PhysAllocUS float64
	// MapUS is the mean time to map an already-allocated page.
	MapUS float64
	// RetrieveUS is the mean time to re-acquire access to a page mapped on
	// both cores (strong model only; zero under lazy release because no
	// fault occurs).
	RetrieveUS float64
}

// Table1Bytes is the region size the paper uses.
const Table1Bytes uint32 = 4 << 20

// Table1 runs the synthetic benchmark for one model.
func Table1(model svm.Model) Table1Result {
	res, _ := Table1Observed(model, core.Instrumentation{})
	return res
}

// Table1Observed is Table1 with instrumentation wired into the machine. The
// result is bit-identical to an uninstrumented run (the equivalence tests
// assert this); the observation is nil when inst requests nothing.
func Table1Observed(model svm.Model, inst core.Instrumentation) (Table1Result, *core.Observation) {
	scfg := svm.DefaultConfig(model)
	ccfg := benchChip()
	ccfg.PrivateMemPerCore = 1 << 20
	m, err := core.NewMachine(core.Options{
		Topology: &ccfg,
		SVM:      &scfg,
		Members:  []int{0, 30},
		Observe:  inst,
	})
	if err != nil {
		panic(err)
	}
	res := Table1Result{Model: model}
	pages := Table1Bytes / pgtable.PageSize

	phase := func(env *core.Env, base uint32) sim.Duration {
		c := env.Core()
		start := c.Now()
		for p := uint32(0); p < pages; p++ {
			c.Store32(base+p*pgtable.PageSize, p+1)
		}
		return c.Now() - start
	}

	mains := map[int]func(*core.Env){
		0: func(env *core.Env) {
			env.K.Barrier() // align both cores before timing the alloc
			t0 := env.Core().Now()
			base := env.SVM.Alloc(Table1Bytes)
			res.AllocUS = (env.Core().Now() - t0).Microseconds()
			// Step 2: first touch of every page.
			d := phase(env, base)
			res.PhysAllocUS = d.Microseconds() / float64(pages)
			env.K.Barrier()
			// Step 3 happens on core 30.
			env.K.Barrier()
			// Step 4: take the pages back.
			d = phase(env, base)
			res.RetrieveUS = d.Microseconds() / float64(pages)
			env.K.Barrier()
		},
		30: func(env *core.Env) {
			env.K.Barrier()
			base := env.SVM.Alloc(Table1Bytes)
			env.K.Barrier()
			d := phase(env, base)
			res.MapUS = d.Microseconds() / float64(pages)
			env.K.Barrier()
			env.K.Barrier()
		},
	}
	m.Run(mains)
	return res, m.Observability()
}

// Table1Both runs the benchmark for both models (the paper's two columns),
// as two independent simulations across the host pool.
func Table1Both() (strong, lazy Table1Result) {
	runTasks([]func(){
		func() { strong = Table1(svm.Strong) },
		func() { lazy = Table1(svm.LazyRelease) },
	})
	return strong, lazy
}
