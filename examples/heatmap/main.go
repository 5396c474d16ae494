// Heatmap: the paper's motivating application — the two-dimensional
// Laplace heat-distribution problem — solved three ways on the simulated
// SCC and cross-checked bit-exactly:
//
//   - plain Go reference,
//   - shared-memory version on MetalSVM (lazy release consistency),
//   - message-passing version over iRCCE ("under Linux").
//
// Prints an ASCII heat map and the three checksums.
//
//	go run ./examples/heatmap
package main

import (
	"fmt"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

func main() {
	p := laplace.Params{Rows: 64, Cols: 64, Iters: 500, TopTemp: 100}
	cores := 8

	// Ground truth.
	grid := laplace.Reference(p)
	ref := laplace.ChecksumGrid(grid)

	// Shared-memory variant on MetalSVM.
	chipCfg := scc.DefaultConfig()
	chipCfg.PrivateMemPerCore = 4 << 20
	chipCfg.SharedMem = 16 << 20
	scfg := svm.DefaultConfig(svm.LazyRelease)
	m, err := core.NewMachine(core.Options{
		Topology: &chipCfg,
		SVM:      &scfg,
		Members:  core.FirstN(cores),
	})
	if err != nil {
		panic(err)
	}
	svmApp := laplace.NewSVM(p, laplace.SVMOptions{})
	m.RunAll(func(env *core.Env) { svmApp.Main(env.SVM) })
	svmRes := svmApp.Result()

	// Message-passing variant over iRCCE.
	b, err := core.NewBaseline(&chipCfg, core.FirstN(cores))
	if err != nil {
		panic(err)
	}
	mpApp := laplace.NewBaseline(p, b.Comm)
	b.Run(func(rank int, c *cpu.Core) { mpApp.Main(rank, c) })
	mpRes := mpApp.Result()

	// ASCII rendering of the reference solution.
	shades := []byte(" .:-=+*#%@")
	fmt.Printf("heat distribution after %d Jacobi iterations (%dx%d, top edge %.0f deg):\n\n",
		p.Iters, p.Rows, p.Cols, p.TopTemp)
	for r := 0; r < p.Rows; r += 4 {
		line := make([]byte, 0, p.Cols/2)
		for c := 0; c < p.Cols; c += 2 {
			v := grid[r*p.Cols+c]
			idx := int(v / p.TopTemp * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			line = append(line, shades[idx])
		}
		fmt.Printf("  %s\n", line)
	}

	fmt.Printf("\nchecksums on %d cores:\n", cores)
	fmt.Printf("  reference      : %.10f\n", ref)
	fmt.Printf("  MetalSVM (lazy): %.10f  (%.2f ms simulated, %d page faults)\n",
		svmRes.Checksum, svmRes.Elapsed.Microseconds()/1000, svmRes.Faults)
	fmt.Printf("  iRCCE baseline : %.10f  (%.2f ms simulated)\n",
		mpRes.Checksum, mpRes.Elapsed.Microseconds()/1000)
	if svmRes.Checksum != ref || mpRes.Checksum != ref {
		panic("variant disagrees with the reference")
	}
	fmt.Println("\nall three agree bit-exactly.")
}
