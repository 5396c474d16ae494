// Integration tests: the checker pointed at real simulated workloads. The
// positive control (a deliberately lock-free program under lazy release) must
// be flagged; every shipped workload must come back race-free under both
// consistency models; and enabling the checker must not move simulated time.
package racecheck_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/core"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// wantGolden compares got with testdata/<name>.golden byte for byte. The
// files were captured at the commit before the observer hooks were folded
// into the event stream, so they pin what the checker saw through the hooks.
func wantGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func smallChip() *scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 4 << 20
	cfg.SharedMem = 16 << 20
	return &cfg
}

func newMachine(t *testing.T, model svm.Model, members []int) *core.Machine {
	t.Helper()
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		Topology: smallChip(),
		SVM:      &scfg,
		Members:  members,
		Observe:  core.Instrumentation{Race: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPositiveControlLockFreeLRC is the detector's positive control: under
// lazy release consistency a store on one core and a load on another with no
// lock, barrier, or ownership transfer between them is a data race, and the
// checker must say so.
func TestPositiveControlLockFreeLRC(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1})
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096) // ends in a barrier: later accesses unordered
		if env.K.ID() == 0 {
			env.Core().Store64(base, 42)
		} else {
			env.Core().Load64(base)
		}
	})
	if m.Observability().Race().Clean() {
		t.Fatal("lock-free LRC conflict not flagged")
	}
	r := m.Observability().Race().Races()[0]
	cores := map[int]bool{r.First.Core: true, r.Second.Core: true}
	if !cores[0] || !cores[1] {
		t.Fatalf("race attributed to wrong cores: %v", r)
	}
	if !r.First.Write && !r.Second.Write {
		t.Fatalf("neither side is the write: %v", r)
	}
	if r.Addr < scc.VirtSharedBase {
		t.Fatalf("race below the shared region: %#x", r.Addr)
	}
	var b strings.Builder
	m.Observability().Race().Report(&b)
	if !strings.Contains(b.String(), "RACE at") {
		t.Fatalf("report: %q", b.String())
	}
	wantGolden(t, "lockfree_lrc", b.String())
}

// TestLockedVariantIsClean is the negative twin of the positive control: the
// same conflicting pair, ordered by an SVM lock, must not be flagged.
func TestLockedVariantIsClean(t *testing.T) {
	m := newMachine(t, svm.LazyRelease, []int{0, 1})
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096)
		env.SVM.Lock(3)
		if env.K.ID() == 0 {
			env.Core().Store64(base, 42)
		} else {
			env.Core().Load64(base)
		}
		env.SVM.Unlock(3)
	})
	if !m.Observability().Race().Clean() {
		t.Fatalf("lock-ordered accesses flagged:\n%v", m.Observability().Race().Races())
	}
}

// TestBarrierVariantIsClean checks the mailbox-derived barrier edges: a
// producer/consumer pair ordered only by the SVM barrier must be clean.
func TestBarrierVariantIsClean(t *testing.T) {
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		m := newMachine(t, model, []int{0, 7, 30})
		m.RunAll(func(env *core.Env) {
			base := env.SVM.Alloc(4096)
			if env.K.ID() == 0 {
				env.Core().Store64(base, 777)
			}
			env.SVM.Barrier()
			if env.Core().Load64(base) != 777 {
				t.Errorf("stale read after barrier")
			}
		})
		if !m.Observability().Race().Clean() {
			t.Fatalf("%v: barrier-ordered accesses flagged:\n%v", model, m.Observability().Race().Races())
		}
	}
}

func TestLaplaceRaceFree(t *testing.T) {
	p := laplace.Params{Rows: 16, Cols: 16, Iters: 10, TopTemp: 100}
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		m := newMachine(t, model, []int{0, 1, 2})
		app := laplace.NewSVM(p, laplace.SVMOptions{})
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		if !m.Observability().Race().Clean() {
			t.Errorf("laplace under %v: %d race observation(s):\n%v",
				model, m.Observability().Race().Dynamic(), m.Observability().Race().Races())
		}
	}
}

func TestMatmulRaceFree(t *testing.T) {
	p := matmul.Params{N: 8}
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		m := newMachine(t, model, []int{0, 1, 30})
		app := matmul.New(p)
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		if !m.Observability().Race().Clean() {
			t.Errorf("matmul under %v: %d race observation(s):\n%v",
				model, m.Observability().Race().Dynamic(), m.Observability().Race().Races())
		}
	}
}

func TestTaskfarmRaceFree(t *testing.T) {
	p := taskfarm.DefaultParams()
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		m := newMachine(t, model, []int{0, 1, 2, 3})
		app := taskfarm.New(p)
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		if !m.Observability().Race().Clean() {
			t.Errorf("taskfarm under %v: %d race observation(s):\n%v",
				model, m.Observability().Race().Dynamic(), m.Observability().Race().Races())
		}
		if r := app.Result(); r.Sum != p.Expected() {
			t.Errorf("taskfarm under %v: sum %#x, want %#x", model, r.Sum, p.Expected())
		}
	}
}

// TestDomainsRaceFree runs two independent coherency domains under one
// chip-wide checker: per-domain barrier-ordered traffic must be clean even
// though the domains share nothing but the silicon.
func TestDomainsRaceFree(t *testing.T) {
	ds, err := core.NewDomains(smallChip(), core.Instrumentation{Race: true}, []core.DomainSpec{
		{Members: []int{0, 1}},
		{Members: []int{24, 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := ds.Observability().Race()
	first := []int{0, 24}
	ds.RunAll(func(domain int, env *core.Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == first[domain] {
			env.Core().Store64(base, uint64(1000+domain))
		}
		env.SVM.Barrier()
		if env.Core().Load64(base) != uint64(1000+domain) {
			t.Errorf("domain %d: stale read", domain)
		}
	})
	if !k.Clean() {
		t.Fatalf("domain traffic flagged:\n%v", k.Races())
	}
	for d, m := range ds.Machines {
		if m.Observability().Race() != k {
			t.Fatalf("domain %d does not share the chip-wide checker", d)
		}
	}
}

// TestCheckerDoesNotPerturbTime is the zero-overhead criterion from the
// other side: a run with the checker enabled must finish at the bit-identical
// simulated time, with the bit-identical result, as a run without it.
func TestCheckerDoesNotPerturbTime(t *testing.T) {
	run := func(race bool) (sim.Time, float64) {
		scfg := svm.DefaultConfig(svm.LazyRelease)
		m, err := core.NewMachine(core.Options{
			Topology: smallChip(),
			SVM:      &scfg,
			Members:  []int{0, 1, 2},
			Observe:  core.Instrumentation{Race: race},
		})
		if err != nil {
			t.Fatal(err)
		}
		app := matmul.New(matmul.Params{N: 8})
		end := m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		return end, app.Result().Checksum
	}
	plainEnd, plainSum := run(false)
	checkedEnd, checkedSum := run(true)
	if plainEnd != checkedEnd {
		t.Fatalf("checker moved simulated time: %v vs %v", plainEnd, checkedEnd)
	}
	if plainSum != checkedSum {
		t.Fatalf("checker changed the result: %v vs %v", plainSum, checkedSum)
	}
}
