package bench

import (
	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// KVReport is one kvstore run's post-mortem: the application's audited
// result plus the harness-level record (watchdog, fault and mailbox
// counters). CalEndUS is the calibration run's end time when the fault
// schedule carried marker crashes or partitions that had to be resolved to
// concrete times first (zero otherwise).
type KVReport struct {
	KV        kvstore.Result
	Completed bool
	Watchdog  string
	Faults    faults.Stats
	Mailbox   mailbox.Stats
	Rescues   uint64
	EndUS     float64
	CalEndUS  float64
}

// Crash-marker resolution fractions: the primary directory manager dies
// early, a backup mid-run, and the "last worker" — which kvstore arranges
// to be a server — dies at 55% of the calibrated run, so failover happens
// with live load still arriving.
const (
	kvCrashPrimaryFrac = 0.30
	kvCrashBackupFrac  = 0.45
	kvCrashServerFrac  = 0.55
)

// Partition-marker resolution: the window opens at 35% of the calibrated
// run and lasts a quarter of it, capped well under the watchdog budget so
// the run degrades instead of freezing.
const (
	kvPartitionFromFrac = 0.35
	kvPartitionLenFrac  = 0.25
	kvPartitionMaxUS    = 1500
)

// RunKV runs the kvstore under a topology and fault schedule. Marker
// crashes (zero-time sentinels) and marker partitions (zero windows) are
// resolved against a calibration run of the same seed with the schedule
// stripped — the whole cell stays a deterministic function of (params,
// topology, config). withDir wires the replicated ownership directory,
// required for any schedule that crashes cores (dead-owner reclaim needs
// it).
func RunKV(p kvstore.Params, topo scc.Config, fc *faults.Config, withDir bool) KVReport {
	if fc != nil && kvNeedsCalibration(fc.Spec) {
		cal := *fc
		cal.Spec.Crashes = nil
		cal.Spec.Partitions = nil
		calR := runKV(p, topo, &cal, withDir, core.Instrumentation{})
		if !calR.Completed {
			return calR // calibration froze; report it as-is
		}
		run := *fc
		run.Spec.Crashes = kvResolveCrashes(fc.Spec.Crashes, calR.EndUS)
		run.Spec.Partitions = resolvePartitions(fc.Spec.Partitions, calR.EndUS)
		r := runKV(p, topo, &run, withDir, core.Instrumentation{})
		r.CalEndUS = calR.EndUS
		return r
	}
	return runKV(p, topo, fc, withDir, core.Instrumentation{})
}

// RunKVObserved is RunKV with instrumentation attached — the
// zero-perturbation contract requires the observed run to reproduce the
// plain run's checksum and end time bit for bit. Only schedules without
// markers are supported (the calibration split would double-instrument).
func RunKVObserved(p kvstore.Params, topo scc.Config, fc *faults.Config, withDir bool, inst core.Instrumentation) KVReport {
	if fc != nil && kvNeedsCalibration(fc.Spec) {
		panic("bench: RunKVObserved does not support marker schedules")
	}
	return runKV(p, topo, fc, withDir, inst)
}

// kvNeedsCalibration reports whether the schedule carries any marker that
// must be resolved against a calibrated run length.
func kvNeedsCalibration(sp faults.Spec) bool {
	if sp.HasPartitionMarker() {
		return true
	}
	for _, cr := range sp.Crashes {
		if cr.AtUS == 0 && cr.AfterDoneUS == 0 {
			return true
		}
	}
	return false
}

// kvResolveCrashes pins marker crash sentinels to concrete mid-run times.
func kvResolveCrashes(crashes []faults.Crash, endUS float64) []faults.Crash {
	out := make([]faults.Crash, 0, len(crashes))
	for _, cr := range crashes {
		if cr.AtUS == 0 && cr.AfterDoneUS == 0 {
			switch cr.Core {
			case faults.CrashPrimaryManager:
				cr.AtUS = kvCrashPrimaryFrac * endUS
			case faults.CrashBackupManager:
				cr.AtUS = kvCrashBackupFrac * endUS
			default:
				// CrashLastWorker (a kvstore server) and concrete cores.
				cr.AtUS = kvCrashServerFrac * endUS
			}
		}
		out = append(out, cr)
	}
	return out
}

// resolvePartitions pins marker partition windows (zero from/to) to a
// concrete mid-run outage derived from a calibrated run length: the window
// opens at 35% of the run and lasts a quarter of it, capped. Shared by
// RunKV and Fig9ChaosMembers.
func resolvePartitions(parts []faults.Partition, endUS float64) []faults.Partition {
	out := make([]faults.Partition, 0, len(parts))
	for _, pt := range parts {
		if pt.FromUS == 0 && pt.ToUS == 0 {
			pt.FromUS = kvPartitionFromFrac * endUS
			length := kvPartitionLenFrac * endUS
			if length > kvPartitionMaxUS {
				length = kvPartitionMaxUS
			}
			pt.ToUS = pt.FromUS + length
		}
		out = append(out, pt)
	}
	return out
}

// runKV is one machine boot and run.
func runKV(p kvstore.Params, topo scc.Config, fc *faults.Config, withDir bool, inst core.Instrumentation) KVReport {
	chip := topo.Normalized()
	scfg := svm.DefaultConfig(svm.Strong)
	opts := core.Options{
		Topology: &chip,
		SVM:      &scfg,
		Faults:   fc,
		Observe:  inst,
	}
	if withDir {
		// Members nil: the machine carves each chip's manager trio out of
		// the core set and the rest become SVM workers.
		opts.ReplicatedDirectory = &repldir.Config{}
	} else {
		opts.Members = core.AllCores(chip)
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		panic(err)
	}
	app := kvstore.New(p)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })

	r := KVReport{
		Watchdog: m.Cluster.WatchdogReport(),
		Faults:   m.Chip.FaultInjector().Stats(),
		Mailbox:  m.Cluster.Mailbox().Stats(),
	}
	for _, id := range m.Cluster.Members() {
		if k := m.Cluster.Kernel(id); k != nil {
			r.Rescues += k.Stats().Rescues
		}
	}
	if m.Cluster.WatchdogFired() {
		return r
	}
	r.Completed = true
	r.KV = app.Result()
	r.EndUS = r.KV.EndUS
	return r
}

// MinGoodput returns the smallest per-window applied count of a report
// (the graceful-degradation figure: it must stay above zero under faults).
func (r KVReport) MinGoodput() uint64 {
	if len(r.KV.GoodputWindows) == 0 {
		return 0
	}
	min := r.KV.GoodputWindows[0]
	for _, n := range r.KV.GoodputWindows {
		if n < min {
			min = n
		}
	}
	return min
}
