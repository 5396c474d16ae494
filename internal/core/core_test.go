package core

import (
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

func smallChip() *scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20
	cfg.SharedMem = 16 << 20
	return &cfg
}

func TestFirstN(t *testing.T) {
	m := FirstN(3)
	if len(m) != 3 || m[0] != 0 || m[2] != 2 {
		t.Fatalf("FirstN(3) = %v", m)
	}
	if got := FirstN(0); len(got) != 0 {
		t.Fatalf("FirstN(0) = %v", got)
	}
}

func TestMachineDefaultsBootAllCores(t *testing.T) {
	m, err := NewMachine(Options{Topology: smallChip()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Cluster.Members()); got != 48 {
		t.Fatalf("default members = %d, want 48", got)
	}
}

func TestMachineRunAllSharedMemory(t *testing.T) {
	scfg := svm.DefaultConfig(svm.LazyRelease)
	m, err := NewMachine(Options{
		Topology: smallChip(),
		SVM:      &scfg,
		Members:  []int{0, 7, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]uint64{}
	m.RunAll(func(env *Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == 0 {
			env.Core().Store64(base, 777)
		}
		env.SVM.Barrier()
		seen[env.K.ID()] = env.Core().Load64(base)
	})
	for id, v := range seen {
		if v != 777 {
			t.Fatalf("core %d read %d", id, v)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("only %d cores ran", len(seen))
	}
}

func TestMachineRunPerCoreMains(t *testing.T) {
	m, err := NewMachine(Options{Topology: smallChip(), Members: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	order := []int{}
	m.Run(map[int]func(*Env){
		0: func(env *Env) { order = append(order, 0) },
		1: func(env *Env) { order = append(order, 1) },
	})
	if len(order) != 2 {
		t.Fatalf("mains run = %v", order)
	}
}

func TestMachineMissingMainPanics(t *testing.T) {
	m, err := NewMachine(Options{Topology: smallChip(), Members: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing main accepted")
		}
	}()
	m.Run(map[int]func(*Env){0: func(env *Env) {}})
}

func TestMachineDoubleRunPanics(t *testing.T) {
	m, err := NewMachine(Options{Topology: smallChip(), Members: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	m.RunAll(func(env *Env) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run accepted")
		}
	}()
	m.RunAll(func(env *Env) {})
}

func TestMachineInvalidMembers(t *testing.T) {
	if _, err := NewMachine(Options{Topology: smallChip(), Members: []int{5, 3}}); err == nil {
		t.Fatal("unsorted members accepted")
	}
}

func TestBaselineRun(t *testing.T) {
	b, err := NewBaseline(smallChip(), []int{0, 30})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	b.Run(func(rank int, c *cpu.Core) {
		if rank == 0 {
			b.Comm.Send(0, []byte{1, 2, 3, 4}, 1)
		} else {
			b.Comm.Recv(1, got, 0)
		}
	})
	if got[3] != 4 {
		t.Fatalf("baseline transfer broken: %v", got)
	}
}

func TestBaselineInvalidCores(t *testing.T) {
	if _, err := NewBaseline(smallChip(), nil); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// TestHardeningDecision: NewMachine hardens the chip for injected faults
// without NoHarden and for the replicated directory, which overrides
// NoHarden, and leaves it plain otherwise.
func TestHardeningDecision(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults *faults.Config
		repl   bool
		want   bool
	}{
		{"plain", nil, false, false},
		{"faults", &faults.Config{}, false, true},
		{"faults-noharden", &faults.Config{NoHarden: true}, false, false},
		{"repldir", nil, true, true},
		{"repldir-noharden", &faults.Config{NoHarden: true}, true, true},
	} {
		opts := Options{Topology: smallChip(), Members: FirstN(4), Faults: c.faults}
		if c.repl {
			opts.ReplicatedDirectory = &repldir.Config{}
		}
		m, err := NewMachine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Chip.FaultsHardened(); got != c.want {
			t.Errorf("%s: FaultsHardened() = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestReplicatedDirectoryFree: freeing a region under the replicated
// directory, which asks the manager group to forget each page, returns
// every frame it took, and the next allocation reads its own fresh writes,
// under both models. Four workers keep it fast: the default strong-model
// worker set runs the same scenario for minutes.
func TestReplicatedDirectoryFree(t *testing.T) {
	const pages = 8
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		scfg := svm.DefaultConfig(model)
		m, err := NewMachine(Options{
			Topology:            smallChip(),
			SVM:                 &scfg,
			Members:             FirstN(4),
			ReplicatedDirectory: &repldir.Config{},
		})
		if err != nil {
			t.Fatal(err)
		}
		before, held, after, bad := -1, -1, -1, 0
		m.RunAll(func(env *Env) {
			h, c := env.SVM, env.Core()
			if h.Rank() == 0 {
				before = m.SVM.FreeFrames()
			}
			for round := uint64(1); round <= 2; round++ {
				base := h.Alloc(pages * pgtable.PageSize)
				if h.Rank() == 0 {
					for p := uint32(0); p < pages; p++ {
						c.Store64(base+p*pgtable.PageSize, 100*round+uint64(p))
					}
				}
				h.Barrier()
				for p := uint32(0); p < pages; p++ {
					if c.Load64(base+p*pgtable.PageSize) != 100*round+uint64(p) {
						bad++
					}
				}
				h.Barrier()
				if round == 1 {
					if h.Rank() == 0 {
						held = m.SVM.FreeFrames()
					}
					h.Free(base)
					if h.Rank() == 0 {
						after = m.SVM.FreeFrames()
					}
				}
			}
		})
		if m.Cluster.WatchdogFired() {
			t.Fatalf("%v: watchdog fired:\n%s", model, m.Cluster.WatchdogReport())
		}
		if held != before-pages || after != before || bad != 0 {
			t.Errorf("%v: free frames %d before the allocation, %d before the free, %d after it; %d stale reads",
				model, before, held, after, bad)
		}
	}
}
