package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/faults"
	"metalsvm/internal/profile"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
	"metalsvm/internal/trace"
)

// traceHash folds every field of every retained event, in emission order,
// into one FNV-1a hash: any event that moves in time, changes core, kind or
// argument, appears, disappears or reorders changes the hash.
func traceHash(events []trace.Event) uint64 {
	h := fnv.New64a()
	var b [8 + 4 + 1 + 8 + 8]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(b[0:], uint64(e.At))
		binary.LittleEndian.PutUint32(b[8:], uint32(e.Core))
		b[12] = byte(e.Kind)
		binary.LittleEndian.PutUint64(b[13:], e.Arg1)
		binary.LittleEndian.PutUint64(b[21:], e.Arg2)
		h.Write(b[:])
	}
	return h.Sum64()
}

func checkGoldenTrace(t *testing.T, obs *Observation, wantEvents int, wantHash uint64) {
	t.Helper()
	if d := obs.TraceSummary().Dropped; d != 0 {
		t.Fatalf("ring wrapped (%d dropped): the golden hash needs the whole run", d)
	}
	events := obs.TraceEvents()
	if got := traceHash(events); len(events) != wantEvents || got != wantHash {
		t.Fatalf("trace moved: %d events hashing to %#x, want %d hashing to %#x\n%v",
			len(events), got, wantEvents, wantHash, obs.TraceSummary().ByKind)
	}
}

// goldenStrong is a strong-model Laplace run followed by a lock phase on the
// two lock ids the shipped workloads use (histogram 7, taskfarm 11), so a
// change in what Lock/Unlock charge moves every later timestamp.
func goldenStrong(t *testing.T, inst Instrumentation) *Observation {
	t.Helper()
	scfg := svm.DefaultConfig(svm.Strong)
	m, err := NewMachine(Options{Topology: smallChip(), SVM: &scfg, Members: FirstN(4), Observe: inst})
	if err != nil {
		t.Fatal(err)
	}
	app := laplace.NewSVM(laplace.Params{Rows: 24, Cols: 16, Iters: 6, TopTemp: 100}, laplace.SVMOptions{})
	m.RunAll(func(env *Env) {
		app.Main(env.SVM)
		base := env.SVM.Alloc(4096)
		for _, id := range []int{7, 11} {
			env.SVM.Lock(id)
			env.Core().Store64(base, env.Core().Load64(base)+1)
			env.SVM.Unlock(id)
		}
		env.SVM.Barrier()
	})
	return m.Observability()
}

// The retained trace of a strong-model run, pinned at the commit before the
// observer hooks were folded into the event stream. The ring must hold the
// same bytes whether it is the only subscriber or the first of several.
func TestGoldenTraceStrong(t *testing.T) {
	const events, hash = 33282, 0xa53ad04e085189b9
	checkGoldenTrace(t, goldenStrong(t, Instrumentation{TraceCapacity: 1 << 16}), events, hash)
	checkGoldenTrace(t, goldenStrong(t, Instrumentation{
		TraceCapacity: 1 << 16,
		Race:          true,
		Sanitize:      true,
		Metrics:       true,
		Profile:       &profile.Config{},
	}), events, hash)
}

// The retained trace of a hardened run under the crash preset with the
// replicated directory: mail drops and delays, retransmits, the primary
// manager killed mid-run (view change) and the last worker killed after it
// finishes.
func TestGoldenTraceCrashRepldir(t *testing.T) {
	spec, _ := faults.PresetSpec("crash")
	spec.Crashes = []faults.Crash{
		{Core: faults.CrashPrimaryManager, AtUS: 1500},
		{Core: faults.CrashLastWorker, AfterDoneUS: 50},
	}
	scfg := svm.DefaultConfig(svm.Strong)
	m, err := NewMachine(Options{
		Topology:            smallChip(),
		SVM:                 &scfg,
		Members:             FirstN(4),
		Faults:              &faults.Config{Seed: 4, Spec: spec},
		ReplicatedDirectory: &repldir.Config{},
		Observe:             Instrumentation{TraceCapacity: 1 << 16, Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	app := laplace.NewSVM(laplace.Params{Rows: 24, Cols: 16, Iters: 6, TopTemp: 100}, laplace.SVMOptions{})
	m.RunAll(func(env *Env) { app.Main(env.SVM) })
	if m.Cluster.WatchdogFired() {
		t.Fatalf("watchdog fired:\n%s", m.Cluster.WatchdogReport())
	}
	obs := m.Observability()
	kinds := obs.TraceSummary().ByKind
	for _, k := range []trace.Kind{trace.KindCrash, trace.KindDirFailover, trace.KindDirCommit,
		trace.KindFaultInject, trace.KindRetransmit} {
		if kinds[k] == 0 {
			t.Errorf("the crash run recorded no %v event", k)
		}
	}
	checkGoldenTrace(t, obs, 1952, 0xc02dbd1b9daaeba2)
}
