package repldir_test

import (
	"strings"
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
	"metalsvm/internal/trace"
)

// testChip keeps the host footprint small; protocols are untouched.
func testChip() scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20
	cfg.SharedMem = 16 << 20
	return cfg
}

// testParams keeps the paper's one-4KiB-page-per-row geometry (Cols=512) at
// a small row count, so each rank's rows live on pages it owns at the end —
// the property the dead-owner reclaim test depends on.
func testParams() laplace.Params {
	return laplace.Params{Rows: 16, Cols: 512, Iters: 4, TopTemp: 100}
}

// runLaplace runs the Laplace workload on n workers with or without the
// replicated directory and returns the checksum and (with the directory)
// the machine for further inspection.
func runLaplace(t *testing.T, model svm.Model, n int, replicated bool, fc *faults.Config) (float64, *core.Machine) {
	t.Helper()
	chip := testChip()
	scfg := svm.DefaultConfig(model)
	opts := core.Options{
		Topology: &chip,
		SVM:      &scfg,
		Members:  core.FirstN(n),
		Faults:   fc,
	}
	if replicated {
		opts.ReplicatedDirectory = &repldir.Config{}
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	app := laplace.NewSVM(testParams(), laplace.SVMOptions{})
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	if m.Cluster.WatchdogFired() {
		t.Fatalf("watchdog fired:\n%s", m.Cluster.WatchdogReport())
	}
	return app.Result().Checksum, m
}

// The replicated directory must compute the same application results as the
// legacy single-copy one, under both consistency models.
func TestReplicatedMatchesLegacy(t *testing.T) {
	want := laplace.ReferenceChecksum(testParams())
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		legacy, _ := runLaplace(t, model, 4, false, nil)
		if legacy != want {
			t.Fatalf("%v legacy checksum %v != reference %v", model, legacy, want)
		}
		repl, m := runLaplace(t, model, 4, true, nil)
		if repl != want {
			t.Fatalf("%v replicated checksum %v != reference %v", model, repl, want)
		}
		ds := m.Dir.Stats()
		if ds.Commits == 0 || ds.Requests == 0 {
			t.Fatalf("%v directory idle: %+v", model, ds)
		}
		if ds.ViewChanges != 0 {
			t.Fatalf("%v spurious view changes without crashes: %d", model, ds.ViewChanges)
		}
	}
}

// Managers default to the highest free cores, with the lowest of the trio as
// the initial primary.
func TestManagerSelection(t *testing.T) {
	_, m := runLaplace(t, svm.Strong, 4, true, nil)
	wantTop := m.Chip.Cores() // 48 on the stock platform
	got := m.Dir.Managers()
	if len(got) != repldir.ReplicaCount {
		t.Fatalf("managers %v", got)
	}
	for i, mgr := range got {
		if want := wantTop - repldir.ReplicaCount + i; mgr != want {
			t.Fatalf("managers %v, want the %d highest cores", got, repldir.ReplicaCount)
		}
	}
	if len(m.SVM.Workers()) != 4 {
		t.Fatalf("workers %v", m.SVM.Workers())
	}
}

// A crash schedule that kills the initial primary mid-run and a page owner
// right after it finishes must still complete with the exact reference
// checksum — both the cooperative extraction and the post-crash audit — and
// must leave failover and reclaim evidence in the counters.
func TestCrashFailoverAndReclaim(t *testing.T) {
	fc, err := faults.ParseConfig("4,crash")
	if err != nil {
		t.Fatal(err)
	}
	lp := testParams()
	lcfg := bench.Fig9Config{Params: lp, Chip: testChip()}
	want := laplace.ReferenceChecksum(lp)
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		r := bench.Fig9CrashChaosMembers(lcfg, model, core.FirstN(4), &fc)
		if !r.Completed {
			t.Fatalf("%v froze:\n%s", model, r.Watchdog)
		}
		if r.Sum != want {
			t.Fatalf("%v checksum %v != reference %v", model, r.Sum, want)
		}
		if r.AuditSum != want {
			t.Fatalf("%v audit checksum %v != reference %v", model, r.AuditSum, want)
		}
		if r.Faults.Crashes == 0 {
			t.Fatalf("%v schedule crashed nobody: %+v", model, r.Faults)
		}
		if r.Dir.ViewChanges == 0 {
			t.Fatalf("%v no failover despite primary crash: %+v", model, r.Dir)
		}
		if model == svm.Strong && r.Dir.Reconstructions == 0 {
			t.Fatalf("strong audit forced no dead-owner reclaims: %+v", r.Dir)
		}
	}
}

// Crash schedules across a seed sweep must all run to completion with the
// reference checksum — the liveness guard for the recovery paths (failover,
// catch-up retry, reclaim): a stalled fetch chain or wedged page shows up
// here as a watchdog report.
func TestCrashSeedSweepCompletes(t *testing.T) {
	lp := testParams()
	lcfg := bench.Fig9Config{Params: lp, Chip: testChip()}
	want := laplace.ReferenceChecksum(lp)
	for seed := uint64(1); seed <= 6; seed++ {
		fc := faults.Config{Seed: seed, Spec: mustPreset(t, "crash")}
		r := bench.Fig9CrashChaosMembers(lcfg, svm.Strong, core.FirstN(4), &fc)
		if !r.Completed {
			t.Fatalf("seed %d froze:\n%s", seed, r.Watchdog)
		}
		if r.Sum != want || r.AuditSum != want {
			t.Fatalf("seed %d checksum %v / audit %v, want %v", seed, r.Sum, r.AuditSum, want)
		}
	}
}

func mustPreset(t *testing.T, name string) faults.Spec {
	t.Helper()
	sp, ok := faults.PresetSpec(name)
	if !ok {
		t.Fatalf("preset %q missing", name)
	}
	return sp
}

// The same seed must replay a crash run bit-identically.
func TestCrashReplayDeterminism(t *testing.T) {
	fc, err := faults.ParseConfig("7,crash")
	if err != nil {
		t.Fatal(err)
	}
	lcfg := bench.Fig9Config{Params: testParams(), Chip: testChip()}
	a := bench.Fig9CrashChaosMembers(lcfg, svm.Strong, core.FirstN(4), &fc)
	b := bench.Fig9CrashChaosMembers(lcfg, svm.Strong, core.FirstN(4), &fc)
	if a.EndUS != b.EndUS || a.Sum != b.Sum || a.AuditSum != b.AuditSum ||
		a.Dir != b.Dir || a.Faults != b.Faults {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// The directory's protocol counters must surface in the metrics snapshot as
// dir.* counters, consistent with the directory's own stats.
func TestMetricsSurfaceDirCounters(t *testing.T) {
	lcfg := bench.Fig9Config{Params: testParams(), Chip: testChip()}
	_, obs := bench.Fig9DirObserved(lcfg, svm.Strong, 4, core.Instrumentation{Metrics: true})
	if obs == nil {
		t.Fatal("no observation despite Metrics: true")
	}
	snap := obs.MetricsSnapshot()
	if got := snap.Counter("dir.commits"); got == 0 {
		t.Fatalf("dir.commits = 0 in snapshot")
	}
	if got, want := snap.Counter("dir.requests"), snap.Counter("dir.lookups")+
		snap.Counter("dir.claims")+snap.Counter("dir.get_owners")+
		snap.Counter("dir.transfers")+snap.Counter("dir.reclaims")+
		snap.Counter("dir.forgets")+snap.Counter("dir.orphan_reclaims"); got != want {
		t.Fatalf("dir.requests = %d, want the sum of the per-kind counters %d", got, want)
	}
	if snap.Counter("dir.view_changes") != 0 {
		t.Fatalf("spurious view changes on a fault-free run")
	}
}

// yieldClock records when the first B→A ownership transfer leaves the owner
// (the yield instant), for calibrating a crash into the handoff window. It
// subscribes to the one kind it needs.
type yieldClock struct {
	owner int
	reqer int
	t     sim.Time
	seen  bool
}

func (y *yieldClock) onYield(e trace.Event) {
	if !y.seen && int(e.Core) == y.owner && int(e.Arg2) == y.reqer {
		y.seen = true
		y.t = e.At
	}
}

// A requester that crashes after the owner yielded but before committing the
// transfer must not wedge the page: the recorded owner is alive yet disowns
// it, and the next requester has to recover it through an orphan reclaim.
// The crash instant comes from a calibration run (same seed, inert crash
// entries so both runs take the crash-armed barrier paths and stay
// bit-identical up to the injected crash).
func TestOrphanedHandoffRecovers(t *testing.T) {
	const ownerCore, crashCore, lateCore = 0, 1, 2
	run := func(fc *faults.Config, clock *yieldClock) (uint64, *core.Machine) {
		chip := testChip()
		scfg := svm.DefaultConfig(svm.Strong)
		m, err := core.NewMachine(core.Options{
			Topology:            &chip,
			SVM:                 &scfg,
			Members:             core.FirstN(3),
			Faults:              fc,
			ReplicatedDirectory: &repldir.Config{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if clock != nil {
			m.Chip.Tracer().Subscribe(clock.onYield, trace.KindOwnerYield)
		}
		var got uint64
		m.Run(map[int]func(*core.Env){
			ownerCore: func(env *core.Env) {
				base := env.SVM.Alloc(4096)
				env.Core().Store64(base, 42) // first touch: this core owns the page
				env.SVM.Barrier()
				env.SVM.Barrier() // park here serving requests until the others finish
			},
			crashCore: func(env *core.Env) {
				base := env.SVM.Alloc(4096)
				env.SVM.Barrier()
				env.Core().Load64(base) // acquire mid-crash (never completes in the crash run)
				env.SVM.Barrier()
			},
			lateCore: func(env *core.Env) {
				base := env.SVM.Alloc(4096)
				env.SVM.Barrier()
				// Arrive well after the crash wedged the record.
				env.Core().Proc().Advance(sim.Microseconds(800))
				env.Core().Sync()
				got = env.Core().Load64(base)
				env.SVM.Barrier()
			},
		})
		if m.Cluster.WatchdogFired() {
			t.Fatalf("watchdog fired:\n%s", m.Cluster.WatchdogReport())
		}
		return got, m
	}

	// Calibration: find the yield instant. The after-done crash entry is
	// inert before completion but arms the crash-tolerant barriers, keeping
	// this run bit-identical to the crash run up to the injected instant.
	clock := &yieldClock{owner: ownerCore, reqer: crashCore}
	calGot, _ := run(&faults.Config{Seed: 11, Spec: faults.Spec{
		Crashes: []faults.Crash{{Core: crashCore, AfterDoneUS: 50}},
	}}, clock)
	if !clock.seen {
		t.Fatal("calibration run saw no ownership transfer to the crash core")
	}
	if calGot != 42 {
		t.Fatalf("calibration read %d, want 42", calGot)
	}

	// Crash run: kill the requester 1us after the yield — long before its
	// directory commit can land — leaving the record orphaned.
	got, m := run(&faults.Config{Seed: 11, Spec: faults.Spec{
		Crashes: []faults.Crash{{Core: crashCore, AtUS: clock.t.Microseconds() + 1}},
	}}, nil)
	if got != 42 {
		t.Fatalf("late reader got %d through the orphaned page, want 42", got)
	}
	ds := m.Dir.Stats()
	if ds.OrphanReclaims == 0 {
		t.Fatalf("no orphan reclaim despite the wedged handoff: %+v", ds)
	}
}

// The watchdog diagnostics dump must include the replica states.
func TestDumpFormat(t *testing.T) {
	fc, err := faults.ParseConfig("1,drops")
	if err != nil {
		t.Fatal(err)
	}
	_, m := runLaplace(t, svm.Strong, 4, true, &fc)
	var sb strings.Builder
	m.Dir.DumpDiagnostics(&sb)
	out := sb.String()
	for _, want := range []string{"repldir:", "replica 0", "replica 2", "view=", "opnum=", "dir stats:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
