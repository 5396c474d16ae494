package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"metalsvm/internal/profile"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// observedWorkload runs a small two-core SVM workload that exercises every
// profiled bucket: faults and the ownership protocol, barriers, locks, and
// plain memory traffic.
func observedWorkload(t *testing.T, inst Instrumentation) (sim.Time, *Machine) {
	t.Helper()
	scfg := svm.DefaultConfig(svm.Strong)
	m, err := NewMachine(Options{
		Topology: smallChip(), SVM: &scfg, Members: []int{0, 47}, Observe: inst,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := m.RunAll(func(env *Env) {
		base := env.SVM.Alloc(8192)
		if env.K.ID() == 0 {
			env.Core().Store64(base, 1)
		}
		env.SVM.Barrier()
		// Both cores leave the barrier together: one loses the lock's
		// test-and-set and spins on it.
		env.SVM.Lock(1)
		env.SVM.Unlock(1)
		if env.K.ID() == 47 {
			env.Core().Store64(base, 2) // steal ownership from core 0
		}
		env.SVM.Lock(0)
		env.Core().Store64(base+4096, uint64(env.K.ID()))
		env.SVM.Unlock(0)
		// Repeated loads: the first fills L1, the rest hit.
		for i := 0; i < 4; i++ {
			env.Core().Load64(base + 4096)
		}
		env.SVM.Barrier()
	})
	return end, m
}

// TestZeroPerturbation is the headline invariant: a run with every observer
// enabled finishes at exactly the same simulated time as an uninstrumented
// run.
func TestZeroPerturbation(t *testing.T) {
	plain, mPlain := observedWorkload(t, Instrumentation{})
	if mPlain.Observability() != nil {
		t.Fatal("empty instrumentation built an observation")
	}
	full, mFull := observedWorkload(t, Instrumentation{
		TraceCapacity: 8192,
		Race:          true,
		Metrics:       true,
		Profile:       &profile.Config{},
	})
	if plain != full {
		t.Fatalf("instrumentation changed simulated time: %v vs %v", plain, full)
	}
	if mFull.Observability() == nil {
		t.Fatal("no observation")
	}
}

// TestProfileBucketsPartitionTime: every profiled core's buckets sum to its
// total simulated time, and the protocol buckets actually received charges.
func TestProfileBucketsPartitionTime(t *testing.T) {
	_, m := observedWorkload(t, Instrumentation{Profile: &profile.Config{}})
	r := m.Observability().ProfileReport()
	if r == nil || len(r.Cores) != 2 {
		t.Fatalf("report = %+v", r)
	}
	var agg profile.CoreReport
	for _, c := range r.Cores {
		if c.Sum() != c.Total {
			t.Errorf("core %d buckets sum to %d, total %d", c.Core, c.Sum(), c.Total)
		}
	}
	agg = r.Aggregate()
	for _, b := range []profile.Bucket{
		profile.Compute, profile.FaultHandling, profile.BarrierWait, profile.LockWait,
	} {
		if agg.Buckets[b] == 0 {
			t.Errorf("bucket %v never charged", b)
		}
	}
}

// TestMetricsSnapshotHarvest: the end-of-run snapshot carries the
// subsystems' counters under their stable names.
func TestMetricsSnapshotHarvest(t *testing.T) {
	_, m := observedWorkload(t, Instrumentation{Metrics: true, TraceCapacity: 8192})
	s := m.Observability().MetricsSnapshot()
	if s == nil {
		t.Fatal("no snapshot")
	}
	for _, name := range []string{
		"cpu.loads", "cpu.stores", "cpu.faults", "cache.l1.hits",
		"mailbox.sends", "mesh.ddr_reads", "svm.faults", "svm.locks",
		"svm.barriers", "kernel.barriers", "trace.events",
		"sim.events", "sim.closure_events", "sim.proc_switches",
		"sim.self_wakes", "sim.run_throughs", "sim.sync_in_step", "sim.in_place_steps",
	} {
		if s.Counter(name) == 0 {
			t.Errorf("counter %q is zero", name)
		}
	}
	if s.Counter("svm.owner_requests") == 0 {
		t.Error("ownership steal produced no owner requests")
	}
}

// TestPerfettoExportFromMachine: the export is valid JSON with events.
func TestPerfettoExportFromMachine(t *testing.T) {
	_, m := observedWorkload(t, Instrumentation{
		TraceCapacity: 8192, Profile: &profile.Config{},
	})
	var buf bytes.Buffer
	if err := m.Observability().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(d.TraceEvents) == 0 {
		t.Fatal("empty export from an instrumented run")
	}
}

// TestRaceWiresThroughObservation: Observe.Race wires the checker into the
// machine's observation.
func TestRaceWiresThroughObservation(t *testing.T) {
	scfg := svm.DefaultConfig(svm.Strong)
	m, err := NewMachine(Options{
		Topology: smallChip(), SVM: &scfg, Members: []int{0, 1},
		Observe: Instrumentation{Race: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Observability().Race() == nil {
		t.Fatal("Observe.Race did not wire the checker")
	}
}

// TestNilObservationAccessors: a nil observation answers every accessor.
func TestNilObservationAccessors(t *testing.T) {
	var o *Observation
	o.Finish()
	if o.Race() != nil || o.ProfileReport() != nil ||
		o.MetricsSnapshot() != nil || o.TraceEvents() != nil {
		t.Fatal("nil observation misbehaves")
	}
	if s := o.TraceSummary(); s.Total != 0 {
		t.Fatal("nil trace summary non-empty")
	}
	if err := o.WritePerfetto(&bytes.Buffer{}); err == nil {
		t.Fatal("nil observation export did not error")
	}
}

// TestDomainsObserve: the domains facade wires the same observation across
// every domain.
func TestDomainsObserve(t *testing.T) {
	ds, err := NewDomains(smallChip(), Instrumentation{Metrics: true, Profile: &profile.Config{}}, []DomainSpec{
		{Members: []int{0, 1}},
		{Members: []int{24, 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := ds.Observability()
	if obs == nil || ds.Machines[1].Observability() != obs {
		t.Fatal("domains observation not shared")
	}
	ds.RunAll(func(domain int, env *Env) {
		base := env.SVM.Alloc(4096)
		env.Core().Store64(base, uint64(domain))
		env.SVM.Barrier()
	})
	r := obs.ProfileReport()
	if r == nil || len(r.Cores) != 4 {
		t.Fatalf("report covers %d cores, want 4", len(r.Cores))
	}
	if obs.MetricsSnapshot().Counter("svm.faults") == 0 {
		t.Fatal("snapshot missed the domains' faults")
	}
}
