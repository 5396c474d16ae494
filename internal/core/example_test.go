package core_test

import (
	"fmt"

	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

func exampleChip() *scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20
	cfg.SharedMem = 16 << 20
	return &cfg
}

// The canonical MetalSVM session: boot a cluster, allocate shared memory
// collectively, and let the SVM system move data between the non-coherent
// cores.
func ExampleMachine() {
	m, err := core.NewMachine(core.Options{
		Topology: exampleChip(),
		Members:  []int{0, 30},
	})
	if err != nil {
		panic(err)
	}
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == 0 {
			env.Core().Store64(base, 42)
		}
		env.SVM.Barrier()
		if env.K.ID() == 30 {
			fmt.Println("core 30 reads", env.Core().Load64(base))
		}
	})
	// Output: core 30 reads 42
}

// Two independent coherency domains share one chip: same virtual layout,
// disjoint physical frames, no interference.
func ExampleDomains() {
	lazy := svm.DefaultConfig(svm.LazyRelease)
	ds, err := core.NewDomains(exampleChip(), core.Instrumentation{}, []core.DomainSpec{
		{Members: []int{0, 1}},
		{Members: []int{30, 31}, SVM: &lazy},
	})
	if err != nil {
		panic(err)
	}
	reads := make(chan string, 2)
	ds.RunAll(func(domain int, env *core.Env) {
		base := env.SVM.Alloc(4096)
		if env.K.Index() == 0 {
			env.Core().Store64(base, uint64(1000+domain))
		}
		env.SVM.Barrier()
		if env.K.Index() == 1 {
			reads <- fmt.Sprintf("domain %d sees %d", domain, env.Core().Load64(base))
		}
	})
	close(reads)
	for s := range reads {
		fmt.Println(s)
	}
	// Unordered output:
	// domain 0 sees 1000
	// domain 1 sees 1001
}

// The message-passing comparison system: bare cores with iRCCE.
func ExampleBaseline() {
	b, err := core.NewBaseline(exampleChip(), []int{0, 47})
	if err != nil {
		panic(err)
	}
	got := make([]byte, 5)
	b.Run(func(rank int, c *cpu.Core) {
		if rank == 0 {
			b.Comm.Send(0, []byte("hello"), 1)
		} else {
			b.Comm.Recv(1, got, 0)
		}
	})
	fmt.Println(string(got))
	// Output: hello
}
