package bench

import (
	"fmt"
	"testing"

	"metalsvm/internal/core"
	"metalsvm/internal/svm"
	"metalsvm/internal/trace"
)

// TestIntraTraceDiff is a debugging aid: it runs the diverging Laplace cell
// serially and under wave dispatch with a large tracer and reports the first
// event where the two streams differ.
func TestIntraTraceDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("debug helper")
	}
	run := func(intra int) []trace.Event {
		core.SetIntraWorkers(intra)
		defer core.SetIntraWorkers(0)
		cfg := QuickFig9(2)
		inst := core.Instrumentation{TraceCapacity: 1 << 22}
		_, obs := Fig9Observed(cfg, svm.Strong, 4, inst)
		return obs.TraceEvents()
	}
	serial := run(0)
	intra := run(4)
	n := len(serial)
	if len(intra) < n {
		n = len(intra)
	}
	for i := 0; i < n; i++ {
		if serial[i] != intra[i] {
			lo := i - 8
			if lo < 0 {
				lo = 0
			}
			for j := lo; j <= i+8 && j < n; j++ {
				t.Logf("serial[%d] = %v", j, serial[j])
				t.Logf("intra [%d] = %v", j, intra[j])
			}
			t.Fatalf("first divergence at event %d of %d/%d", i, len(serial), len(intra))
		}
	}
	if len(serial) != len(intra) {
		t.Fatalf("lengths differ: serial %d, intra %d", len(serial), len(intra))
	}
	fmt.Println("traces identical:", len(serial), "events")
}
