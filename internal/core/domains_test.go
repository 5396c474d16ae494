package core

import (
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// smallDomains builds specs on smallChip, failing the test on an error.
func smallDomains(t *testing.T, specs ...DomainSpec) *Domains {
	t.Helper()
	ds, err := NewDomains(smallChip(), Instrumentation{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDomainsValidation(t *testing.T) {
	if _, err := NewDomains(smallChip(), Instrumentation{}, nil); err == nil {
		t.Error("zero domains accepted")
	}
	// Overlapping memberships.
	if _, err := NewDomains(smallChip(), Instrumentation{}, []DomainSpec{
		{Members: []int{0, 1}},
		{Members: []int{1, 2}},
	}); err == nil {
		t.Error("overlapping domains accepted")
	}
	// An empty domain would otherwise default to every core.
	if _, err := NewDomains(smallChip(), Instrumentation{}, []DomainSpec{{Members: []int{0}}, {}}); err == nil {
		t.Error("empty domain accepted")
	}
	// Explicit page ranges are the constructor's job.
	bad := svm.DefaultConfig(svm.Strong)
	bad.PageLo, bad.PageHi = 1, 10
	if _, err := NewDomains(smallChip(), Instrumentation{}, []DomainSpec{{Members: []int{0}, SVM: &bad}}); err == nil {
		t.Error("explicit page range accepted")
	}
}

// TestDomainsIsolation runs two independent SVM domains on one chip and
// checks that their allocations land in disjoint physical ranges and their
// data never bleeds across.
func TestDomainsIsolation(t *testing.T) {
	ds := smallDomains(t,
		DomainSpec{Members: []int{0, 1}},
		DomainSpec{Members: []int{24, 30}},
	)
	layout := ds.Machines[0].Chip.Layout()
	type obs struct {
		paddr uint32
		read  uint64
	}
	results := map[int]obs{}
	ds.RunAll(func(domain int, env *Env) {
		base := env.SVM.Alloc(4096)
		lead := env.K.Index() == 0
		if lead {
			env.Core().Store64(base, uint64(1000+domain))
		}
		env.SVM.Barrier()
		e, _ := env.Core().Table.Lookup(base)
		results[env.K.ID()] = obs{
			paddr: e.PhysAddr(base),
			read:  env.Core().Load64(base),
		}
	})
	if len(results) != 4 {
		t.Fatalf("only %d cores reported", len(results))
	}
	// Same virtual base in both domains, but disjoint physical frames.
	if results[0].paddr == results[24].paddr {
		t.Fatal("domains share a physical frame")
	}
	for _, id := range []int{0, 1} {
		if results[id].read != 1000 {
			t.Errorf("domain 0 core %d read %d", id, results[id].read)
		}
	}
	for _, id := range []int{24, 30} {
		if results[id].read != 1001 {
			t.Errorf("domain 1 core %d read %d", id, results[id].read)
		}
	}
	// The frames must come from each domain's own page slice.
	half := layout.SharedFrames() / 2
	f0 := layout.SharedFrameOf(results[0].paddr)
	f1 := layout.SharedFrameOf(results[24].paddr)
	if f0 >= half {
		t.Errorf("domain 0 frame %d outside its slice [1,%d)", f0, half)
	}
	if f1 < half {
		t.Errorf("domain 1 frame %d outside its slice [%d,...)", f1, half)
	}
}

// TestDomainsConcurrentLaplace is the flagship integration test: two
// coherency domains each solve an independent Laplace instance — different
// consistency models, different sizes — concurrently on one chip, and both
// match the serial reference bit-exactly.
func TestDomainsConcurrentLaplace(t *testing.T) {
	strongCfg := svm.DefaultConfig(svm.Strong)
	lazyCfg := svm.DefaultConfig(svm.LazyRelease)
	ds := smallDomains(t,
		DomainSpec{Members: []int{0, 1, 2}, SVM: &strongCfg},
		DomainSpec{Members: []int{30, 40}, SVM: &lazyCfg},
	)
	pA := laplace.Params{Rows: 12, Cols: 16, Iters: 6, TopTemp: 100}
	pB := laplace.Params{Rows: 16, Cols: 12, Iters: 9, TopTemp: 50}
	appA := laplace.NewSVM(pA, laplace.SVMOptions{})
	appB := laplace.NewSVM(pB, laplace.SVMOptions{})
	end := ds.RunAll(func(domain int, env *Env) {
		if domain == 0 {
			appA.Main(env.SVM)
		} else {
			appB.Main(env.SVM)
		}
	})
	// Simulated time is pinned bit for bit: the chip's end time and each
	// domain's compute time and fault count.
	if end != 4081166666 {
		t.Errorf("end %d, want 4081166666", end)
	}
	for d, c := range []struct {
		got     laplace.Result
		elapsed sim.Time
		faults  uint64
	}{{appA.Result(), 2867547545, 548}, {appB.Result(), 79214136, 4}} {
		if c.got.Elapsed != c.elapsed || c.got.Faults != c.faults {
			t.Errorf("domain %d: elapsed %d, %d faults; want %d, %d",
				d, c.got.Elapsed, c.got.Faults, c.elapsed, c.faults)
		}
	}
	if got, want := appA.Result().Checksum, laplace.ReferenceChecksum(pA); got != want {
		t.Errorf("domain 0 checksum %v, want %v", got, want)
	}
	if got, want := appB.Result().Checksum, laplace.ReferenceChecksum(pB); got != want {
		t.Errorf("domain 1 checksum %v, want %v", got, want)
	}
}

func TestDomainsDoubleRunPanics(t *testing.T) {
	ds := smallDomains(t, DomainSpec{Members: []int{0}})
	ds.RunAll(func(int, *Env) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second run accepted")
		}
	}()
	ds.RunAll(func(int, *Env) {})
}
