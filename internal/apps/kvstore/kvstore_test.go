package kvstore_test

import (
	"testing"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
)

// smallParams is a quick but fully-featured configuration for a 16-core
// chip (12 clients, 4 servers).
func smallParams() kvstore.Params {
	p := kvstore.DefaultParams()
	p.Requests = 3000
	return p
}

func smallTopo() scc.Config { return scc.Grid(4, 4, 1) }

// requireClean asserts the baseline invariants every completed run must
// hold: exact audit, complete outcome taxonomy and nonzero goodput in every
// reporting window.
func requireClean(t *testing.T, r bench.KVReport, wantIssued uint64) {
	t.Helper()
	if !r.Completed {
		t.Fatalf("run froze: %s", r.Watchdog)
	}
	if !r.KV.AuditOK {
		t.Fatalf("audit failed: %v", r.KV.AuditErrors)
	}
	if r.KV.Issued != wantIssued {
		t.Fatalf("issued %d requests, want %d", r.KV.Issued, wantIssued)
	}
	if r.KV.Issued != r.KV.Applied+r.KV.Shed+r.KV.Expired {
		t.Fatalf("taxonomy leak: %+v", r.KV)
	}
	if min := r.MinGoodput(); min == 0 {
		t.Fatalf("a goodput window stalled: %v", r.KV.GoodputWindows)
	}
}

func TestKVClosedLoopAudit(t *testing.T) {
	p := smallParams()
	r, _ := bench.KVCell(p, smallTopo(), false, nil, core.Instrumentation{})
	requireClean(t, r, uint64(p.Requests))
	if r.KV.Applied == 0 || r.KV.ServerApplied == 0 {
		t.Fatalf("nothing applied: %+v", r.KV)
	}
	if r.KV.Expired != 0 {
		t.Errorf("fault-free closed loop expired %d requests", r.KV.Expired)
	}
	if r.KV.DirectReads == 0 {
		t.Errorf("no direct replica reads in the mix")
	}
	if r.KV.LatGet.Count() == 0 || r.KV.LatPut.Count() == 0 || r.KV.LatHot.Count() == 0 {
		t.Errorf("a latency class is empty: get %d put %d hot %d",
			r.KV.LatGet.Count(), r.KV.LatPut.Count(), r.KV.LatHot.Count())
	}
	if p50, p999 := r.KV.LatPut.Quantile(0.5), r.KV.LatPut.Quantile(0.999); p50 == 0 || p999 < p50 {
		t.Errorf("put quantiles implausible: p50 %d, p999 %d", p50, p999)
	}
}

// TestKVReplayBitIdentical: the run is a pure function of (params,
// topology, schedule) — same seed, same everything.
func TestKVReplayBitIdentical(t *testing.T) {
	p := smallParams()
	a, _ := bench.KVCell(p, smallTopo(), false, nil, core.Instrumentation{})
	b, _ := bench.KVCell(p, smallTopo(), false, nil, core.Instrumentation{})
	if a.KV.Checksum != b.KV.Checksum || a.EndUS != b.EndUS {
		t.Fatalf("replay diverged: %#x/%.3f vs %#x/%.3f",
			a.KV.Checksum, a.EndUS, b.KV.Checksum, b.EndUS)
	}
}

// TestKVOpenLoopSheds: an open-loop arrival rate past the admission
// controller's budget must shed — and still audit exactly.
func TestKVOpenLoopSheds(t *testing.T) {
	p := smallParams()
	p.OpenLoop = true
	p.ArrivalUS = 0.5
	p.ServiceCycles = 5000
	p.QueueBound = 2
	r, _ := bench.KVCell(p, smallTopo(), false, nil, core.Instrumentation{})
	requireClean(t, r, uint64(p.Requests))
	if r.KV.Shed == 0 || r.KV.ServerShed == 0 {
		t.Fatalf("overload shed nothing: %+v", r.KV)
	}
	if r.KV.Applied == 0 {
		t.Fatalf("overload starved everything: %+v", r.KV)
	}
}

// TestKVCrashFailover: the crash preset (resolved to kill a directory
// manager early and a server mid-run) must degrade gracefully: failovers
// happen, the audit stays exact, goodput never stalls.
func TestKVCrashFailover(t *testing.T) {
	p := smallParams()
	spec, _ := faults.PresetSpec("crash")
	fc := &faults.Config{Seed: 7, Spec: spec}
	r, _ := bench.KVCell(p, smallTopo(), true, fc, core.Instrumentation{})
	requireClean(t, r, uint64(p.Requests))
	if r.Faults.Crashes == 0 {
		t.Fatalf("crash schedule crashed nobody: %+v", r.Faults)
	}
	if r.KV.Failovers == 0 {
		t.Errorf("server crash triggered no failovers: %+v", r.KV)
	}
	if r.CalEndUS == 0 {
		t.Errorf("marker schedule was not calibrated")
	}
}

// TestKVDropsRecovers: the drops preset (lossy mail, no crashes) must
// resolve every request and audit exactly — retries and the hardened
// mailbox absorb the loss.
func TestKVDropsRecovers(t *testing.T) {
	p := smallParams()
	spec, _ := faults.PresetSpec("drops")
	fc := &faults.Config{Seed: 11, Spec: spec}
	r, _ := bench.KVCell(p, smallTopo(), false, fc, core.Instrumentation{})
	requireClean(t, r, uint64(p.Requests))
	if r.Faults.Injected() == 0 {
		t.Fatalf("drops schedule injected nothing: %+v", r.Faults)
	}
}

// TestKVPartitionHeals: a two-chip run through a mid-run link outage must
// complete with an exact audit and nonzero goodput in every window — the
// replica reads and same-chip traffic carry the service through the
// partition.
func TestKVPartitionHeals(t *testing.T) {
	p := smallParams()
	spec, _ := faults.PresetSpec("partition")
	fc := &faults.Config{Seed: 13, Spec: spec}
	topo := scc.MultiChip(2, scc.Grid(2, 2, 2))
	r, _ := bench.KVCell(p, topo, false, fc, core.Instrumentation{})
	requireClean(t, r, uint64(p.Requests))
	if r.Faults.PartitionDrops == 0 {
		t.Fatalf("partition window dropped nothing: %+v", r.Faults)
	}
	if r.CalEndUS == 0 {
		t.Errorf("marker partition was not calibrated")
	}
}
