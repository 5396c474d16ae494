package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"metalsvm/internal/core"
	"metalsvm/internal/profile"
	"metalsvm/internal/racecheck"
	"metalsvm/internal/svm"
)

// fullInstrumentation enables every observer at once — the strongest
// perturbation test.
func fullInstrumentation() core.Instrumentation {
	return core.Instrumentation{
		TraceCapacity: 1 << 14,
		Race:          &racecheck.Config{},
		Metrics:       true,
		Profile:       &profile.Config{},
	}
}

// TestObservedHarnessEquivalence is the zero-perturbation contract over the
// figure harnesses: with metrics, profiling, tracing and race checking all
// enabled, every representative cell reproduces the uninstrumented number
// bit for bit.
func TestObservedHarnessEquivalence(t *testing.T) {
	inst := fullInstrumentation()

	t.Run("fig6", func(t *testing.T) {
		plain, obsNil := Fig6Observed(20, core.Instrumentation{})
		if obsNil != nil {
			t.Fatal("empty instrumentation built an observation")
		}
		got, obs := Fig6Observed(20, inst)
		if got != plain {
			t.Fatalf("instrumentation changed the result: %v vs %v", got, plain)
		}
		checkObservation(t, obs)
	})

	t.Run("fig7", func(t *testing.T) {
		plain, _ := Fig7Observed(20, 4, core.Instrumentation{})
		got, obs := Fig7Observed(20, 4, inst)
		if got != plain {
			t.Fatalf("instrumentation changed the result: %v vs %v", got, plain)
		}
		checkObservation(t, obs)
	})

	t.Run("table1", func(t *testing.T) {
		plain := Table1(svm.Strong)
		got, obs := Table1Observed(svm.Strong, inst)
		if got != plain {
			t.Fatalf("instrumentation changed the result:\nplain = %+v\ngot   = %+v", plain, got)
		}
		checkObservation(t, obs)
	})

	t.Run("fig9", func(t *testing.T) {
		cfg := PaperFig9(2)
		plain := Fig9RunSVM(cfg, svm.Strong, 2)
		got, obs := Fig9Observed(cfg, svm.Strong, 2, inst)
		if got != plain {
			t.Fatalf("instrumentation changed the result: %v vs %v", got, plain)
		}
		checkObservation(t, obs)
	})
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
