// Integration tests: the sanitizer pointed at real simulated workloads.
// Each checker class has a positive control (a deliberately buggy program it
// must flag); every shipped workload must come back clean under both
// consistency models; enabling the sanitizer must not move simulated time;
// and enabling it together with the race checker must leave both working
// (both subscribe to the chip's one event stream).
package sancheck_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/core"
	"metalsvm/internal/sancheck"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// wantGolden compares the sanitizer's full report with
// testdata/<name>.golden byte for byte. The files were captured at the
// commit before the observer hooks were folded into the event stream, so
// they pin what the checker saw through the hooks.
func wantGolden(t *testing.T, name string, san *sancheck.Checker) {
	t.Helper()
	var b strings.Builder
	san.Report(&b)
	path := "testdata/" + name + ".golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("report differs from %s:\n--- got\n%s--- want\n%s", path, b.String(), want)
	}
}

func smallChip() *scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 4 << 20
	cfg.SharedMem = 16 << 20
	return &cfg
}

func newMachine(t *testing.T, model svm.Model, members []int, obs core.Instrumentation) *core.Machine {
	t.Helper()
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		Topology: smallChip(),
		SVM:      &scfg,
		Members:  members,
		Observe:  obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sanitized() core.Instrumentation {
	return core.Instrumentation{Sanitize: true}
}

// TestWorkloadsCleanUnderSanitizer: every shipped workload, under both
// consistency models, must produce zero findings — the apps initialize what
// they read, free nothing early, and order their locks consistently.
func TestWorkloadsCleanUnderSanitizer(t *testing.T) {
	workloads := []struct {
		name string
		main func() func(*core.Env)
	}{
		{"laplace", func() func(*core.Env) {
			app := laplace.NewSVM(laplace.Params{Rows: 16, Cols: 16, Iters: 4, TopTemp: 100},
				laplace.SVMOptions{})
			return func(env *core.Env) { app.Main(env.SVM) }
		}},
		{"matmul", func() func(*core.Env) {
			app := matmul.New(matmul.Params{N: 8})
			return func(env *core.Env) { app.Main(env.SVM) }
		}},
		{"taskfarm", func() func(*core.Env) {
			app := taskfarm.New(taskfarm.DefaultParams())
			return func(env *core.Env) { app.Main(env.SVM) }
		}},
	}
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		for _, w := range workloads {
			m := newMachine(t, model, core.FirstN(4), sanitized())
			m.RunAll(w.main())
			san := m.Observability().San()
			if san == nil {
				t.Fatal("sanitizer not wired")
			}
			if !san.Clean() {
				t.Errorf("%s under %v: %d finding(s):\n%v",
					w.name, model, len(san.Findings()), san.Findings())
			}
		}
	}
}

// TestPositiveControlUninitRead: a load from an allocated but never-written
// region returns the allocator's zeros functionally, but the shadow checker
// must flag it — the zero was never a program value.
func TestPositiveControlUninitRead(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1}, sanitized())
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == 0 {
			env.Core().Load64(base)
		}
		env.SVM.Barrier()
	})
	san := m.Observability().San()
	if got := san.CountOf(sancheck.UninitRead); got == 0 {
		t.Fatalf("uninitialized read not flagged; findings: %v", san.Findings())
	}
	wantGolden(t, "uninit_read", san)
}

// TestPositiveControlUseAfterFree: an access to a freed region traps in the
// svm layer; the pre-panic event must have classified it first.
func TestPositiveControlUseAfterFree(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1}, sanitized())
	panicked := false
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096)
		env.Core().Store64(base, 1)
		env.SVM.Barrier()
		env.SVM.Free(base)
		if env.K.ID() == 0 {
			defer func() {
				if recover() != nil {
					panicked = true
				}
				env.K.Barrier()
			}()
			env.Core().Load64(base) // must trap
			t.Error("use after free did not trap")
		} else {
			env.K.Barrier()
		}
	})
	if !panicked {
		t.Fatal("no trap on use after free")
	}
	san := m.Observability().San()
	if got := san.CountOf(sancheck.UseAfterFree); got == 0 {
		t.Fatalf("use-after-free not classified; findings: %v", san.Findings())
	}
	wantGolden(t, "use_after_free", san)
}

// TestPositiveControlDoubleFree: freeing a region twice is flagged as a
// double free (not a wild free) because the base matches a freed span.
func TestPositiveControlDoubleFree(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1}, sanitized())
	panicked := false
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096)
		env.Core().Store64(base, 1)
		env.SVM.Barrier()
		env.SVM.Free(base)
		if env.K.ID() == 0 {
			defer func() {
				if recover() != nil {
					panicked = true
				}
				env.K.Barrier()
			}()
			env.SVM.Free(base) // must trap
			t.Error("double free did not trap")
		} else {
			env.K.Barrier()
		}
	})
	if !panicked {
		t.Fatal("no trap on double free")
	}
	san := m.Observability().San()
	if got := san.CountOf(sancheck.DoubleFree); got == 0 {
		t.Fatalf("double free not classified; findings: %v", san.Findings())
	}
	wantGolden(t, "double_free", san)
}

// TestPositiveControlReadOnlyWrite: a store into a protected region traps;
// the finding must carry the ReadOnlyWrite class.
func TestPositiveControlReadOnlyWrite(t *testing.T) {
	m := newMachine(t, svm.Strong, []int{0, 1}, sanitized())
	panicked := false
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096)
		env.Core().Store64(base, 7)
		env.SVM.Barrier()
		env.SVM.ProtectReadOnly(base, 4096)
		if env.K.ID() == 0 {
			defer func() {
				if recover() != nil {
					panicked = true
				}
				env.K.Barrier()
			}()
			env.Core().Store64(base, 8) // must trap
			t.Error("read-only write did not trap")
		} else {
			env.K.Barrier()
		}
	})
	if !panicked {
		t.Fatal("no trap on read-only write")
	}
	san := m.Observability().San()
	if got := san.CountOf(sancheck.ReadOnlyWrite); got == 0 {
		t.Fatalf("read-only write not classified; findings: %v", san.Findings())
	}
	wantGolden(t, "readonly_write", san)
}

// TestPositiveControlLocksetRace: two cores write the same word under
// different locks. On this schedule the accesses may be far apart in time —
// the happens-before checker only flags them because no edge orders them —
// but the lockset checker flags the empty intersection regardless of how
// the schedule fell.
func TestPositiveControlLocksetRace(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1}, sanitized())
	m.RunAll(lockedWriterRounds)
	san := m.Observability().San()
	if got := san.CountOf(sancheck.LocksetRace); got == 0 {
		t.Fatalf("inconsistently locked writes not flagged; findings: %v", san.Findings())
	}
	wantGolden(t, "lockset_race", san)
}

// lockedWriterRounds is the lockset positive-control workload: both cores
// repeatedly write the same word, each consistently under its own lock, with
// skewed compute padding so the rounds interleave in simulated time. The
// candidate set seeds at the first shared access and intersects to empty at
// the next access from the other core.
func lockedWriterRounds(env *core.Env) {
	base := env.SVM.Alloc(4096)
	lock := 1
	if env.K.ID() != 0 {
		lock = 2
	}
	for i := 0; i < 4; i++ {
		env.SVM.Lock(lock)
		env.Core().Store64(base, uint64(env.K.ID()+1))
		env.SVM.Unlock(lock)
		env.Core().Cycles(uint64(500 + env.K.ID()*700))
	}
	env.SVM.Barrier()
}

// TestLocksetConsistentLockingIsClean: the same sharing pattern under one
// common lock must be silent.
func TestLocksetConsistentLockingIsClean(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1}, sanitized())
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096)
		env.SVM.Lock(1)
		env.Core().Store64(base, uint64(env.K.ID()+1))
		env.SVM.Unlock(1)
		env.SVM.Barrier()
	})
	san := m.Observability().San()
	if !san.Clean() {
		t.Fatalf("consistently locked writes flagged: %v", san.Findings())
	}
}

// TestPositiveControlLockOrderCycle: core 0 nests lock 2 inside lock 1,
// core 1 (a barrier later, so the run cannot actually deadlock) nests lock 1
// inside lock 2. The run completes, but the order graph must report the
// cycle.
func TestPositiveControlLockOrderCycle(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1}, sanitized())
	m.RunAll(func(env *core.Env) {
		if env.K.ID() == 0 {
			env.SVM.Lock(1)
			env.SVM.Lock(2)
			env.SVM.Unlock(2)
			env.SVM.Unlock(1)
		}
		env.K.Barrier()
		if env.K.ID() != 0 {
			env.SVM.Lock(2)
			env.SVM.Lock(1)
			env.SVM.Unlock(1)
			env.SVM.Unlock(2)
		}
		env.K.Barrier()
	})
	san := m.Observability().San()
	if got := san.CountOf(sancheck.LockOrderCycle); got == 0 {
		t.Fatalf("ABBA lock nesting not flagged; findings: %v", san.Findings())
	}
	wantGolden(t, "lock_order_cycle", san)
}

// TestSanitizerDoesNotPerturbTime is the zero-perturbation criterion: a run
// with the full sanitizer enabled must finish at the bit-identical simulated
// time, with the bit-identical result, as a run without it.
func TestSanitizerDoesNotPerturbTime(t *testing.T) {
	run := func(obs core.Instrumentation) (sim.Time, float64) {
		m := newMachine(t, svm.LazyRelease, []int{0, 1, 2}, obs)
		app := matmul.New(matmul.Params{N: 8})
		end := m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		return end, app.Result().Checksum
	}
	plainEnd, plainSum := run(core.Instrumentation{})
	sanEnd, sanSum := run(sanitized())
	if plainEnd != sanEnd {
		t.Fatalf("sanitizer moved simulated time: %v vs %v", plainEnd, sanEnd)
	}
	if plainSum != sanSum {
		t.Fatalf("sanitizer changed the result: %v vs %v", plainSum, sanSum)
	}
}

// TestComposesWithRaceChecker: enabling the race checker and the sanitizer
// together must leave both functional — each is one more subscriber of the
// same stream, so both see every event.
func TestComposesWithRaceChecker(t *testing.T) {
	obs := core.Instrumentation{
		Race:     true,
		Sanitize: true,
	}
	m := newMachine(t, svm.LazyRelease, []int{0, 1}, obs)
	m.RunAll(lockedWriterRounds)
	san := m.Observability().San()
	if got := san.CountOf(sancheck.LocksetRace); got == 0 {
		t.Fatalf("lockset checker lost the finding when composed; findings: %v", san.Findings())
	}
	if m.Observability().Race().Clean() {
		t.Fatal("race checker lost the race when composed with the sanitizer")
	}
}
