package bench

import (
	"reflect"
	"testing"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
)

// TestParallelEquivalence is the bit-exactness contract of the host-parallel
// experiment runner: for every harness, running one simulation at a time and
// fanning the simulations over four workers must produce deep-equal results,
// down to the last simulated picosecond. Under `go test -race` this doubles
// as the race test of the parallel runner: four workers drive whole
// simulations concurrently. The contract does not depend on a cell's size,
// so each harness runs reduced: few rounds, a 64x64 Laplace grid, a 500
// request KV load.
func TestParallelEquivalence(t *testing.T) {
	small := PaperFig9(2)
	small.Params.Rows, small.Params.Cols = 64, 64
	kp := kvstore.DefaultParams()
	kp.Requests = 500
	crash, _ := faults.PresetSpec("crash")
	harnesses := []struct {
		name string
		run  func() any
	}{
		{"fig6", func() any { return Fig6(20) }},
		{"fig7", func() any { return Fig7(20, []int{2, 4}) }},
		{"table1", func() any {
			s, l := Table1Both()
			return []Table1Result{s, l}
		}},
		{"fig9", func() any {
			cfg := small
			cfg.CoreCounts = []int{2, 4}
			return Fig9(cfg)
		}},
		{"ablation-wcb", func() any {
			with, without := AblationWCB(small, 4)
			return []float64{with, without}
		}},
		{"kvstore", func() any {
			// The plain row and the crash row, whose cell calibrates and
			// then runs armed.
			out := make([]KVReport, 2)
			runTasks([]func(){
				func() { out[0], _ = KVCell(kp, scc.Grid(4, 4, 1), false, nil, core.Instrumentation{}) },
				func() {
					out[1], _ = KVCell(kp, scc.Grid(4, 4, 1), true, &faults.Config{Seed: 1, Spec: crash}, core.Instrumentation{})
				},
			})
			return out
		}},
	}
	defer SetParallelism(0)
	for _, h := range harnesses {
		t.Run(h.name, func(t *testing.T) {
			SetParallelism(1)
			serial := h.run()

			SetParallelism(4)
			par := h.run()
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("parallel run diverges from serial:\nserial   = %+v\nparallel = %+v", serial, par)
			}
		})
	}
}
