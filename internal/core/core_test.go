package core

import (
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
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
	if m.Mode() != mailbox.ModeIPI {
		t.Fatalf("default mode = %v, want IPI", m.Mode())
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
