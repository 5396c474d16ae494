package bench

import (
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/core"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// This file holds the ablation studies for the design decisions DESIGN.md
// calls out: the write-combine buffer, the scratchpad location, and the
// L2-enabled read-only regions. The IPI-vs-polling decision is covered by
// Figures 6 and 7 directly.

// AblationWCB measures the Laplace iteration loop under lazy release with
// the write-combine buffer on vs off (Section 3's claim that combining
// write-through data is "extremely useful to increase the bandwidth").
// Returns iteration-loop times in microseconds, on cfg's grid (the paper's
// is PaperFig9).
func AblationWCB(cfg Fig9Config, cores int) (withWCB, withoutWCB float64) {
	cfgNoWCB := cfg
	cfgNoWCB.Chip.Core.DisableWCB = true
	runTasks([]func(){
		func() { withWCB = fig9SVM(cfg, svm.LazyRelease, cores) },
		func() { withoutWCB = fig9SVM(cfgNoWCB, svm.LazyRelease, cores) },
	})
	return withWCB, withoutWCB
}

// AblationScratchpad measures the mean first-touch page fault with the
// frame directory in the MPBs vs in off-die memory (Section 6.3's
// trade-off: the MPB location is faster but caps the shared space at
// 256 MiB through its 16-bit entries).
func AblationScratchpad(pages uint32) (mpbUS, offDieUS float64) {
	run := func(offDie bool) float64 {
		scfg := svm.DefaultConfig(svm.LazyRelease)
		scfg.ScratchpadOffDie = offDie
		// Isolate the directory cost: no allocator bookkeeping, no zeroing
		// dominance — keep the calibrated costs but measure the delta.
		ccfg := ShrunkChip(scc.PaperSCC())
		m, err := core.NewMachine(core.Options{
			Topology: &ccfg,
			SVM:      &scfg,
			Members:  []int{0, 30},
		})
		if err != nil {
			panic(err)
		}
		var us float64
		m.Run(map[int]func(*core.Env){
			0: func(env *core.Env) {
				base := env.SVM.Alloc(pages * pgtable.PageSize)
				for p := uint32(0); p < pages; p++ {
					env.Core().Store32(base+p*pgtable.PageSize, 1)
				}
				env.K.Barrier()
			},
			30: func(env *core.Env) {
				base := env.SVM.Alloc(pages * pgtable.PageSize)
				env.K.Barrier()
				// Map pages allocated by core 0: pure directory lookups.
				start := env.Core().Now()
				for p := uint32(0); p < pages; p++ {
					env.Core().Store32(base+p*pgtable.PageSize+4, 2)
				}
				us = (env.Core().Now() - start).Microseconds() / float64(pages)
			},
		})
		return us
	}
	var mpb, offDie float64
	runTasks([]func(){
		func() { mpb = run(false) },
		func() { offDie = run(true) },
	})
	return mpb, offDie
}

// AblationMatmulReadOnly runs the matrix-multiply application with its
// inputs writable vs protected read-only (Section 6.4 applied to an
// application rather than a microbenchmark). Returns multiply-loop times
// in microseconds.
func AblationMatmulReadOnly(n, cores int) (writableUS, protectedUS float64) {
	run := func(protected bool) float64 {
		scfg := svm.DefaultConfig(svm.LazyRelease)
		ccfg := ShrunkChip(scc.PaperSCC())
		m, err := core.NewMachine(core.Options{
			Topology: &ccfg,
			SVM:      &scfg,
			Members:  core.FirstN(cores),
		})
		if err != nil {
			panic(err)
		}
		app := matmul.New(matmul.Params{N: n, Protected: protected})
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		return app.Result().Elapsed.Microseconds()
	}
	var writable, protected float64
	runTasks([]func(){
		func() { writable = run(false) },
		func() { protected = run(true) },
	})
	return writable, protected
}

// AblationNextTouch measures the steady-state benefit of
// affinity-on-next-touch (the paper's Section 8 outlook): a region
// initialized by core 0 is scanned by core 47 (a) remotely as placed and
// (b) after next-touch migration has pulled the frames to core 47's
// controller. Both scans run with cold L1 (CL1INVMB) so the mesh distance
// to DRAM dominates. Returns mean per-scan times in microseconds,
// excluding the migration itself.
func AblationNextTouch(pages uint32, scans int) (remoteUS, localUS float64) {
	scfg := svm.DefaultConfig(svm.LazyRelease)
	ccfg := ShrunkChip(scc.PaperSCC())
	m, err := core.NewMachine(core.Options{
		Topology: &ccfg,
		SVM:      &scfg,
		Members:  []int{0, 47},
	})
	if err != nil {
		panic(err)
	}
	bytes := pages * pgtable.PageSize
	scan := func(env *core.Env, base uint32) float64 {
		start := env.Core().Now()
		for s := 0; s < scans; s++ {
			env.Core().CL1INVMB()
			for off := uint32(0); off < bytes; off += 32 {
				env.Core().Load64(base + off)
			}
		}
		return (env.Core().Now() - start).Microseconds() / float64(scans)
	}
	m.Run(map[int]func(*core.Env){
		0: func(env *core.Env) {
			base := env.SVM.Alloc(bytes)
			for off := uint32(0); off < bytes; off += 8 {
				env.Core().Store64(base+off, uint64(off))
			}
			env.SVM.Barrier()
			env.K.Barrier() // remote scan
			env.SVM.NextTouch(base, bytes)
			env.K.Barrier() // migration + local scans
		},
		47: func(env *core.Env) {
			base := env.SVM.Alloc(bytes)
			env.SVM.Barrier()
			remoteUS = scan(env, base)
			env.K.Barrier()
			env.SVM.NextTouch(base, bytes)
			// Trigger the migrations (first touch), then measure steady
			// state.
			for off := uint32(0); off < bytes; off += pgtable.PageSize {
				env.Core().Load64(base + off)
			}
			localUS = scan(env, base)
			env.K.Barrier()
		},
	})
	return remoteUS, localUS
}

// AblationReadOnlyL2 measures repeated scans of a shared region before and
// after the collective read-only protection of Section 6.4 (which clears
// the MPBT bit and thereby re-enables the L2). Returns mean scan times in
// microseconds.
func AblationReadOnlyL2(pages uint32, scans int) (writableUS, readonlyUS float64) {
	scfg := svm.DefaultConfig(svm.LazyRelease)
	ccfg := ShrunkChip(scc.PaperSCC())
	// Shrink L1 so the region does not fit it — the win must come from L2.
	ccfg.Core.L1Size = 2 << 10
	m, err := core.NewMachine(core.Options{
		Topology: &ccfg,
		SVM:      &scfg,
		Members:  []int{0, 30},
	})
	if err != nil {
		panic(err)
	}
	bytes := pages * pgtable.PageSize
	scan := func(env *core.Env, base uint32) float64 {
		start := env.Core().Now()
		for s := 0; s < scans; s++ {
			for off := uint32(0); off < bytes; off += 32 {
				env.Core().Load64(base + off)
			}
		}
		return (env.Core().Now() - start).Microseconds() / float64(scans)
	}
	m.Run(map[int]func(*core.Env){
		0: func(env *core.Env) {
			base := env.SVM.Alloc(bytes)
			for off := uint32(0); off < bytes; off += 8 {
				env.Core().Store64(base+off, uint64(off))
			}
			env.SVM.Barrier()
			env.SVM.ProtectReadOnly(base, bytes)
			env.K.Barrier()
		},
		30: func(env *core.Env) {
			base := env.SVM.Alloc(bytes)
			env.SVM.Barrier()
			writableUS = scan(env, base) // MPBT pages: L1 only
			env.SVM.ProtectReadOnly(base, bytes)
			readonlyUS = scan(env, base) // L2 enabled
			env.K.Barrier()
		},
	})
	return writableUS, readonlyUS
}
