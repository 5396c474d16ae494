package laplace

import (
	"testing"

	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// smallParams keeps simulated work manageable in unit tests.
func smallParams() Params {
	return Params{Rows: 16, Cols: 16, Iters: 10, TopTemp: 100}
}

// smallChip shrinks private memory so 48-core boots stay fast.
func smallChip() *scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 4 << 20
	cfg.SharedMem = 16 << 20
	return &cfg
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Params{Rows: 2, Cols: 16, Iters: 1}
	if bad.Validate() == nil {
		t.Fatal("tiny grid accepted")
	}
	bad = Params{Rows: 16, Cols: 16, Iters: 0}
	if bad.Validate() == nil {
		t.Fatal("zero iterations accepted")
	}
	// An array of Rows*Cols doubles must stay below 4 GiB.
	if err := (Params{Rows: 32768, Cols: 16383, Iters: 1}).Validate(); err != nil {
		t.Fatalf("largest grid rejected: %v", err)
	}
	if (Params{Rows: 32768, Cols: 16384, Iters: 1}).Validate() == nil {
		t.Fatal("a 4 GiB array accepted")
	}
}

func TestPartitionCoversInterior(t *testing.T) {
	p := Params{Rows: 1024, Cols: 512, Iters: 1}
	for _, n := range []int{1, 2, 3, 7, 16, 48} {
		covered := 0
		prevHi := 1
		for r := 0; r < n; r++ {
			lo, hi := p.Partition(r, n)
			if lo != prevHi {
				t.Fatalf("n=%d rank %d: gap or overlap at row %d (lo=%d)", n, r, prevHi, lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != p.InteriorRows() || prevHi != p.Rows-1 {
			t.Fatalf("n=%d: covered %d rows, want %d", n, covered, p.InteriorRows())
		}
	}
}

func TestReferencePhysics(t *testing.T) {
	p := Params{Rows: 32, Cols: 32, Iters: 2000, TopTemp: 100}
	g := Reference(p)
	// Steady state approached: cell near the top edge should be warmer
	// than one near the bottom.
	top := g[2*p.Cols+p.Cols/2]
	bottom := g[(p.Rows-3)*p.Cols+p.Cols/2]
	if top <= bottom {
		t.Fatalf("no heat gradient: top %v bottom %v", top, bottom)
	}
	// All temperatures within the boundary range.
	for i, v := range g {
		if v < 0 || v > p.TopTemp {
			t.Fatalf("cell %d = %v outside [0,%v] (maximum principle violated)", i, v, p.TopTemp)
		}
	}
}

func runSVMTest(t *testing.T, model svm.Model, members []int, p Params, opts SVMOptions) Result {
	t.Helper()
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		Topology: smallChip(),
		SVM:      &scfg,
		Members:  members,
	})
	if err != nil {
		t.Fatal(err)
	}
	app := NewSVM(p, opts)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	return app.Result()
}

func TestSVMMatchesReferenceBitExact(t *testing.T) {
	p := smallParams()
	want := ReferenceChecksum(p)
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		for _, members := range [][]int{{0}, {0, 30}, {0, 1, 2, 3}} {
			got := runSVMTest(t, model, members, p, SVMOptions{})
			if got.Checksum != want {
				t.Errorf("%v on %d cores: checksum %v, want %v",
					model, len(members), got.Checksum, want)
			}
			if got.Elapsed == 0 {
				t.Errorf("%v: zero elapsed time", model)
			}
		}
	}
}

// TestSVMWrongWithoutConsistency disables the flush/invalidate at barriers
// and demands a WRONG result on multiple cores: if this test fails, the
// simulator's caches are not really non-coherent and every other
// conclusion would be suspect.
func TestSVMWrongWithoutConsistency(t *testing.T) {
	p := smallParams()
	want := ReferenceChecksum(p)
	got := runSVMTest(t, svm.LazyRelease, []int{0, 30}, p, SVMOptions{SkipConsistency: true})
	if got.Checksum == want {
		t.Fatalf("checksum %v matches reference despite skipped consistency — caches are secretly coherent", got.Checksum)
	}
}

func TestSVMSingleCoreUnaffectedBySkippedConsistency(t *testing.T) {
	// On one core there is nobody to be incoherent with.
	p := smallParams()
	want := ReferenceChecksum(p)
	got := runSVMTest(t, svm.LazyRelease, []int{0}, p, SVMOptions{SkipConsistency: true})
	if got.Checksum != want {
		t.Fatalf("single-core checksum %v, want %v", got.Checksum, want)
	}
}

func TestStrongTakesFaultsPerIteration(t *testing.T) {
	p := smallParams()
	strong := runSVMTest(t, svm.Strong, []int{0, 30}, p, SVMOptions{})
	lazy := runSVMTest(t, svm.LazyRelease, []int{0, 30}, p, SVMOptions{})
	if strong.Faults <= lazy.Faults {
		t.Fatalf("strong faults (%d) not above lazy faults (%d) — ownership not migrating",
			strong.Faults, lazy.Faults)
	}
}

func runBaselineTest(t *testing.T, cores []int, p Params) Result {
	t.Helper()
	b, err := core.NewBaseline(smallChip(), cores)
	if err != nil {
		t.Fatal(err)
	}
	app := NewBaseline(p, b.Comm)
	b.Run(func(rank int, c *cpu.Core) { app.Main(rank, c) })
	return app.Result()
}

func TestBaselineMatchesReferenceBitExact(t *testing.T) {
	p := smallParams()
	want := ReferenceChecksum(p)
	for _, cores := range [][]int{{0}, {0, 30}, {0, 1, 2, 3, 4}} {
		got := runBaselineTest(t, cores, p)
		if got.Checksum != want {
			t.Errorf("baseline on %d cores: checksum %v, want %v", len(cores), got.Checksum, want)
		}
	}
}

// TestFullChip48Cores runs the paper's full grid on all 48 cores (few
// iterations) for all three variants and cross-checks them bit-exactly —
// the maximal configuration of Figure 9.
func TestFullChip48Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("48-core full-grid run is expensive")
	}
	p := Params{Rows: 1024, Cols: 512, Iters: 2, TopTemp: 100}
	want := ReferenceChecksum(p)
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 24 << 20
	cfg.SharedMem = 16 << 20

	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		scfg := svm.DefaultConfig(model)
		m, err := core.NewMachine(core.Options{Topology: &cfg, SVM: &scfg, Members: core.FirstN(48)})
		if err != nil {
			t.Fatal(err)
		}
		app := NewSVM(p, SVMOptions{})
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		if got := app.Result().Checksum; got != want {
			t.Errorf("%v on 48 cores: checksum %v, want %v", model, got, want)
		}
	}

	b, err := core.NewBaseline(&cfg, core.FirstN(48))
	if err != nil {
		t.Fatal(err)
	}
	app := NewBaseline(p, b.Comm)
	b.Run(func(rank int, c *cpu.Core) { app.Main(rank, c) })
	if got := app.Result().Checksum; got != want {
		t.Errorf("baseline on 48 cores: checksum %v, want %v", got, want)
	}
}
