package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
)

// fullInstrumentation enables every observer at once — the strongest
// perturbation test.
func fullInstrumentation() core.Instrumentation {
	return core.Instrumentation{
		TraceCapacity: 1 << 14,
		Race:          true,
		Sanitize:      true,
		Metrics:       true,
		Profile:       &profile.Config{},
	}
}

// TestObservedHarnessEquivalence is the zero-perturbation contract over
// the table of representative cells and the kvstore: with metrics,
// profiling, tracing, race checking and the sanitizer all enabled, every
// cell reproduces the uninstrumented record bit for bit. The Laplace cells
// run a 64x64 grid (the contract does not depend on its size); the KV cells
// run -check's size, and the crash row's observed run is the armed run
// after an uninstrumented calibration.
func TestObservedHarnessEquivalence(t *testing.T) {
	small := PaperFig9(2)
	small.Params.Rows, small.Params.Cols = 64, 64
	sizes := Sizes{Rounds: 20, Fig9: small}
	kp := kvstore.DefaultParams()
	kp.Requests = 2000
	ktopo := scc.Grid(4, 4, 1)
	crash, _ := faults.PresetSpec("crash")

	type row struct {
		name string
		run  func(core.Instrumentation) (any, *core.Observation)
	}
	var cells []row
	for _, c := range Cells {
		cells = append(cells, row{c.Name, func(inst core.Instrumentation) (any, *core.Observation) {
			r, obs, _ := c.Run(sizes, inst)
			return r, obs
		}})
	}
	cells = append(cells,
		row{"kvstore", func(inst core.Instrumentation) (any, *core.Observation) {
			return KVCell(kp, ktopo, false, nil, inst)
		}},
		row{"kvstore-crash", func(inst core.Instrumentation) (any, *core.Observation) {
			r, obs := KVCell(kp, ktopo, true, &faults.Config{Seed: 1, Spec: crash}, inst)
			if !r.Completed || r.CalEndUS == 0 || r.Faults.Crashes == 0 {
				t.Errorf("the crash row did not calibrate, crash and complete: %+v", r.Run)
			}
			return r, obs
		}})
	inst := fullInstrumentation()
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			plain, obsNil := c.run(core.Instrumentation{})
			if obsNil != nil {
				t.Fatal("empty instrumentation built an observation")
			}
			got, obs := c.run(inst)
			if !reflect.DeepEqual(got, plain) {
				t.Fatalf("instrumentation changed the result:\nplain = %+v\ngot   = %+v", plain, got)
			}
			checkObservation(t, obs)
		})
	}
}

// checkObservation asserts the observation's artifacts are coherent: the
// profile partitions each core's time, the snapshot is non-empty, and the
// Perfetto export is valid JSON.
func checkObservation(t *testing.T, obs *core.Observation) {
	t.Helper()
	if obs == nil {
		t.Fatal("no observation")
	}
	r := obs.ProfileReport()
	if r == nil || len(r.Cores) == 0 {
		t.Fatal("no profile report")
	}
	for _, c := range r.Cores {
		if c.Sum() != c.Total {
			t.Errorf("core %d buckets sum to %d, total %d", c.Core, c.Sum(), c.Total)
		}
	}
	s := obs.MetricsSnapshot()
	if s == nil || len(s.Counters) == 0 {
		t.Fatal("no metrics snapshot")
	}
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("perfetto export is not valid JSON")
	}
}
