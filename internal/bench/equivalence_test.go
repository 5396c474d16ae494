package bench

import (
	"reflect"
	"testing"
)

// TestParallelEquivalence is the bit-exactness contract of the host-parallel
// experiment runner: for every harness, running one simulation at a time and
// fanning the simulations over four workers must produce deep-equal results,
// down to the last simulated picosecond. Under `go test -race` this doubles
// as the race test of the parallel runner: four workers drive whole
// simulations concurrently.
func TestParallelEquivalence(t *testing.T) {
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
			cfg := PaperFig9(2)
			cfg.CoreCounts = []int{2, 4}
			return Fig9(cfg)
		}},
		{"ablation-wcb", func() any {
			with, without := AblationWCB(2, 4)
			return []float64{with, without}
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
