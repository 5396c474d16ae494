// Domains: the paper's introduction promises "a dynamic partitioning of
// the SCC's computing resources into several coherency domains". This
// example splits the chip into two independent MetalSVM instances — one
// running the strong model, one lazy release — each solving its own heat
// problem concurrently, sharing nothing but the silicon. Both results are
// checked bit-exactly against the serial reference.
//
//	go run ./examples/domains
package main

import (
	"fmt"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/core"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

func main() {
	chipCfg := scc.DefaultConfig()
	chipCfg.PrivateMemPerCore = 2 << 20
	chipCfg.SharedMem = 16 << 20

	strongCfg := svm.DefaultConfig(svm.Strong)
	lazyCfg := svm.DefaultConfig(svm.LazyRelease)
	ds, err := core.NewDomains(&chipCfg, core.Instrumentation{}, []core.DomainSpec{
		{Members: []int{0, 1, 2, 3}, SVM: &strongCfg},   // west side of the chip
		{Members: []int{40, 41, 46, 47}, SVM: &lazyCfg}, // east side
	})
	if err != nil {
		panic(err)
	}

	pA := laplace.Params{Rows: 48, Cols: 48, Iters: 200, TopTemp: 100}
	pB := laplace.Params{Rows: 32, Cols: 64, Iters: 300, TopTemp: 70}
	appA := laplace.NewSVM(pA, laplace.SVMOptions{})
	appB := laplace.NewSVM(pB, laplace.SVMOptions{})

	end := ds.RunAll(func(domain int, env *core.Env) {
		if domain == 0 {
			appA.Main(env.SVM)
		} else {
			appB.Main(env.SVM)
		}
	})

	rA, rB := appA.Result(), appB.Result()
	fmt.Printf("two coherency domains ran concurrently; chip idle at %.2f ms simulated\n\n",
		end.Microseconds()/1000)
	fmt.Printf("domain 0 (strong, cores 0-3):    %dx%d grid, %.2f ms, %d page faults\n",
		pA.Rows, pA.Cols, rA.Elapsed.Microseconds()/1000, rA.Faults)
	fmt.Printf("domain 1 (lazy,   cores 40-47):  %dx%d grid, %.2f ms, %d page faults\n",
		pB.Rows, pB.Cols, rB.Elapsed.Microseconds()/1000, rB.Faults)

	okA := rA.Checksum == laplace.ReferenceChecksum(pA)
	okB := rB.Checksum == laplace.ReferenceChecksum(pB)
	fmt.Printf("\ndomain 0 matches reference: %v\ndomain 1 matches reference: %v\n", okA, okB)
	if !okA || !okB {
		panic("cross-domain interference!")
	}
}
