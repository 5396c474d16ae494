// Unit tests driving the checker through the event stream, the way a run
// does: each emits events with the argument packing of the layer that emits
// them. Each sanitizer class has a positive control (an event sequence that
// must be flagged) and a negative twin (the disciplined variant must stay
// clean). The integration tests in workloads_test.go run the same classes
// against real simulated workloads through the core wiring.
package sancheck

import (
	"strings"
	"testing"

	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

const base = 0x8000_0000

// The kinds each class reports. Every checker runs all three classes, so a
// test of one class counts only that class's kinds.
var (
	shadowKinds  = []Kind{UninitRead, UseAfterFree, DoubleFree, BadFree, ReadOnlyWrite, WildAccess}
	locksetKinds = []Kind{LocksetRace}
	orderKinds   = []Kind{LockOrderCycle, LockAcrossBarrier}
)

func countOf(k *Checker, kinds []Kind) uint64 {
	var n uint64
	for _, kind := range kinds {
		n += k.CountOf(kind)
	}
	return n
}

func at(us int) sim.Time { return sim.Microseconds(float64(us)) }

// attach returns an n-core checker subscribed to a fresh stream, every core
// a member of SVM system 0.
func attach(n int) (*Checker, *trace.Stream) {
	s := new(trace.Stream)
	k := NewChecker(n, base)
	k.Attach(s, make([]int, n))
	return k, s
}

func TestUninitReadFlaggedOnceAndWriteSilences(t *testing.T) {
	k, s := attach(4)
	s.Emit(0, 0, trace.KindRegionAlloc, base, 1)
	s.Emit(at(1), 0, trace.KindLoad, base+8, 8) // read-before-write: 2 granules
	if got := k.CountOf(UninitRead); got != 2 {
		t.Fatalf("uninit reads = %d, want 2", got)
	}
	s.Emit(at(2), 0, trace.KindLoad, base+8, 8) // repeat: deduped
	if got := k.CountOf(UninitRead); got != 2 {
		t.Fatalf("uninit reads after repeat = %d, want 2", got)
	}
	s.Emit(at(3), 1, trace.KindStore, base+16, 8) // init
	s.Emit(at(4), 0, trace.KindLoad, base+16, 8)
	if got := k.CountOf(UninitRead); got != 2 {
		t.Fatalf("initialized read flagged: %v", k.Findings())
	}
	if k.Clean() {
		t.Fatal("checker reports clean despite findings")
	}
}

func TestSubWordWriteMarksWholeGranule(t *testing.T) {
	k, s := attach(2)
	s.Emit(0, 0, trace.KindRegionAlloc, base, 1)
	s.Emit(at(1), 0, trace.KindStore, base+1, 1) // one byte marks the granule
	s.Emit(at(2), 1, trace.KindLoad, base, 4)
	if countOf(k, shadowKinds) != 0 {
		t.Fatalf("coarsened granule flagged: %v", k.Findings())
	}
}

func TestFreeClassification(t *testing.T) {
	k, s := attach(2)
	s.Emit(0, 0, trace.KindRegionAlloc, base, 2)
	s.Emit(at(1), 0, trace.KindStore, base, 8)
	s.Emit(at(2), 0, trace.KindRegionFree, base, 2)

	s.Emit(at(3), 1, trace.KindInvalidAccess, base+64, 0)
	if got := k.CountOf(UseAfterFree); got != 1 {
		t.Fatalf("use-after-free = %d, want 1: %v", got, k.Findings())
	}
	if f := k.Findings()[0]; !strings.HasPrefix(f.Detail, "read of") {
		t.Fatalf("Arg2 0 must decode as a read: %v", f)
	}
	s.Emit(at(4), 1, trace.KindBadFree, base, 0)
	if got := k.CountOf(DoubleFree); got != 1 {
		t.Fatalf("double-free = %d, want 1: %v", got, k.Findings())
	}
	s.Emit(at(5), 1, trace.KindBadFree, base+0x100000, 0)
	if got := k.CountOf(BadFree); got != 1 {
		t.Fatalf("bad-free = %d, want 1: %v", got, k.Findings())
	}
	s.Emit(at(6), 0, trace.KindInvalidAccess, base+0x200000, 1)
	if got := k.CountOf(WildAccess); got != 1 {
		t.Fatalf("wild-access = %d, want 1: %v", got, k.Findings())
	}
	if f := k.Findings()[3]; !strings.HasPrefix(f.Detail, "write to") {
		t.Fatalf("Arg2 1 must decode as a write: %v", f)
	}
}

func TestFreeWithLiveMappingFlagged(t *testing.T) {
	k, s := attach(3)
	s.Emit(0, 0, trace.KindRegionAlloc, base, 2)
	s.Emit(0, 1, trace.KindMap, base, 0)
	s.Emit(0, 1, trace.KindMap, base+4096, 0)
	s.Emit(0, 2, trace.KindMap, base, 0)
	s.Emit(0, 1, trace.KindUnmap, base, 0)
	s.Emit(0, 1, trace.KindUnmap, base+4096, 0)
	// Core 2 never unmapped page 0: freeing now recycles a frame it can
	// still reach.
	s.Emit(at(9), 0, trace.KindRegionFree, base, 2)
	if got := k.CountOf(UseAfterFree); got != 1 {
		t.Fatalf("live-mapping free = %d findings, want 1: %v", got, k.Findings())
	}
	if f := k.Findings()[0]; !strings.Contains(f.Detail, "core 2") {
		t.Fatalf("wrong core blamed: %v", f)
	}
}

func TestCleanFreeAfterUnmapIsSilent(t *testing.T) {
	k, s := attach(2)
	s.Emit(0, 0, trace.KindRegionAlloc, base, 1)
	s.Emit(0, 0, trace.KindMap, base, 0)
	s.Emit(0, 1, trace.KindMap, base, 0)
	s.Emit(0, 0, trace.KindUnmap, base, 0)
	s.Emit(0, 1, trace.KindUnmap, base, 0)
	s.Emit(at(5), 0, trace.KindRegionFree, base, 1)
	if countOf(k, shadowKinds) != 0 {
		t.Fatalf("disciplined free flagged: %v", k.Findings())
	}
}

func TestReadOnlyWrite(t *testing.T) {
	k, s := attach(2)
	s.Emit(0, 0, trace.KindRegionAlloc, base, 1)
	s.Emit(0, 0, trace.KindRegionProtect, base, 1)
	s.Emit(at(3), 1, trace.KindReadOnlyWrite, base+12, 0)
	if got := k.CountOf(ReadOnlyWrite); got != 1 {
		t.Fatalf("readonly-write = %d, want 1", got)
	}
}

func TestLocksetPositiveUnlockedWriters(t *testing.T) {
	k, s := attach(2)
	s.Emit(at(1), 0, trace.KindStore, base, 8)
	s.Emit(at(2), 1, trace.KindStore, base, 8) // same epoch, no locks held
	if got := k.CountOf(LocksetRace); got == 0 {
		t.Fatalf("unlocked concurrent writers not flagged: %v", k.Findings())
	}
}

func TestLocksetPositiveInconsistentLocks(t *testing.T) {
	k, s := attach(2)
	s.Emit(at(1), 0, trace.KindLockAcquire, 1, 0)
	s.Emit(at(2), 0, trace.KindStore, base, 4)
	s.Emit(at(3), 0, trace.KindLockRelease, 1, 0)

	s.Emit(at(4), 1, trace.KindLockAcquire, 2, 0)
	s.Emit(at(5), 1, trace.KindStore, base, 4) // set becomes {lock 2}
	s.Emit(at(6), 1, trace.KindLockRelease, 2, 0)

	s.Emit(at(7), 0, trace.KindLockAcquire, 1, 0)
	s.Emit(at(8), 0, trace.KindStore, base, 4) // {lock 2} ∩ {lock 1} = {}
	s.Emit(at(9), 0, trace.KindLockRelease, 1, 0)
	if got := k.CountOf(LocksetRace); got != 1 {
		t.Fatalf("inconsistent locking = %d findings, want 1: %v", got, k.Findings())
	}
}

func TestLocksetConsistentLockIsClean(t *testing.T) {
	k, s := attach(2)
	for i := 0; i < 3; i++ {
		core := i % 2
		s.Emit(at(10*i), core, trace.KindLockAcquire, 7, 0)
		s.Emit(at(10*i+1), core, trace.KindStore, base, 8)
		s.Emit(at(10*i+2), core, trace.KindLoad, base, 8)
		s.Emit(at(10*i+3), core, trace.KindLockRelease, 7, 0)
	}
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("consistently locked accesses flagged: %v", k.Findings())
	}
}

func TestLocksetBarrierEpochReset(t *testing.T) {
	k, s := attach(2)
	s.Emit(at(1), 0, trace.KindStore, base, 8) // init phase, no locks
	s.Emit(at(2), 0, trace.KindBarrierDone, 1, 0)
	s.Emit(at(2), 1, trace.KindBarrierDone, 1, 0)
	s.Emit(at(3), 1, trace.KindStore, base, 8) // next phase: ordered by the barrier
	s.Emit(at(4), 1, trace.KindLoad, base, 8)
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("barrier-phased accesses flagged: %v", k.Findings())
	}
	// But within the second phase, an unlocked second writer still races.
	s.Emit(at(5), 0, trace.KindStore, base, 8)
	if k.CountOf(LocksetRace) == 0 {
		t.Fatal("intra-phase unlocked writers not flagged")
	}
}

func TestLocksetOwnershipEpochReset(t *testing.T) {
	k, s := attach(2)
	s.Emit(at(1), 0, trace.KindStore, base+4096, 8)
	s.Emit(0, 1, trace.KindOwnerAcquire, 1, 0) // page index 1 handed to core 1
	s.Emit(at(2), 1, trace.KindStore, base+4096, 8)
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("ownership-ordered accesses flagged: %v", k.Findings())
	}
	// A different page saw no transfer: concurrent writers there race.
	s.Emit(at(3), 0, trace.KindStore, base, 8)
	s.Emit(at(4), 1, trace.KindStore, base, 8)
	if k.CountOf(LocksetRace) == 0 {
		t.Fatal("transfer on page 1 silenced page 0")
	}
}

func TestLocksetSharedReadOnlyIsClean(t *testing.T) {
	k, s := attach(3)
	s.Emit(at(1), 0, trace.KindStore, base, 8)
	s.Emit(at(2), 0, trace.KindBarrierDone, 1, 0)
	s.Emit(at(2), 1, trace.KindBarrierDone, 1, 0)
	s.Emit(at(2), 2, trace.KindBarrierDone, 1, 0)
	// Read-shared after the publication barrier, never written again.
	s.Emit(at(3), 1, trace.KindLoad, base, 8)
	s.Emit(at(4), 2, trace.KindLoad, base, 8)
	s.Emit(at(5), 0, trace.KindLoad, base, 8)
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("read-shared granule flagged: %v", k.Findings())
	}
}

func TestLockOrderCycleReported(t *testing.T) {
	k, s := attach(2)
	// Core 0: A then B. Core 1: B then A. The run completes (the test feeds
	// a serialized interleaving), but the order graph has a cycle.
	s.Emit(at(1), 0, trace.KindLockAcquire, 1, 0)
	s.Emit(at(2), 0, trace.KindLockAcquire, 2, 0)
	s.Emit(at(3), 0, trace.KindLockRelease, 2, 0)
	s.Emit(at(4), 0, trace.KindLockRelease, 1, 0)
	s.Emit(at(5), 1, trace.KindLockAcquire, 2, 0)
	s.Emit(at(6), 1, trace.KindLockAcquire, 1, 0)
	s.Emit(at(7), 1, trace.KindLockRelease, 1, 0)
	s.Emit(at(8), 1, trace.KindLockRelease, 2, 0)
	if got := k.CountOf(LockOrderCycle); got != 1 {
		t.Fatalf("cycle findings = %d, want 1: %v", got, k.Findings())
	}
	f := k.Findings()[0]
	if !strings.Contains(f.Detail, "svm lock 1") || !strings.Contains(f.Detail, "svm lock 2") {
		t.Fatalf("cycle detail incomplete: %v", f)
	}
}

func TestLockOrderNestingWithoutCycleIsClean(t *testing.T) {
	k, s := attach(2)
	for core := 0; core < 2; core++ {
		s.Emit(at(4*core+1), core, trace.KindLockAcquire, 1, 0)
		s.Emit(at(4*core+2), core, trace.KindLockAcquire, 2, 0)
		s.Emit(at(4*core+3), core, trace.KindTASAcquire, 5, 0)
		s.Emit(at(4*core+3), core, trace.KindTASRelease, 5, 0)
		s.Emit(at(4*core+4), core, trace.KindLockRelease, 2, 0)
		s.Emit(at(4*core+4), core, trace.KindLockRelease, 1, 0)
	}
	if countOf(k, orderKinds) != 0 {
		t.Fatalf("consistent nesting flagged: %v", k.Findings())
	}
}

func TestLockAcrossBarrierFlagged(t *testing.T) {
	k, s := attach(2)
	s.Emit(at(1), 0, trace.KindLockAcquire, 3, 0)
	s.Emit(at(2), 0, trace.KindBarrierDone, 1, 0)
	if got := k.CountOf(LockAcrossBarrier); got != 1 {
		t.Fatalf("lock-across-barrier = %d, want 1: %v", got, k.Findings())
	}
	s.Emit(at(3), 0, trace.KindBarrierDone, 1, 0) // same lock: deduped
	if got := k.CountOf(LockAcrossBarrier); got != 1 {
		t.Fatalf("dedup failed: %d findings", got)
	}
}

func TestMaxFindingsBoundsReportNotDynamic(t *testing.T) {
	k, s := attach(2)
	s.Emit(0, 0, trace.KindRegionAlloc, base, 1)
	const reads = maxFindings + 3
	for i := uint32(0); i < reads; i++ {
		s.Emit(at(int(i)), 0, trace.KindLoad, uint64(base+i*4), 4)
	}
	if len(k.Findings()) != maxFindings {
		t.Fatalf("recorded %d findings, want %d", len(k.Findings()), maxFindings)
	}
	if k.Dynamic() != reads {
		t.Fatalf("dynamic = %d, want %d", k.Dynamic(), reads)
	}
}

func TestReportFormat(t *testing.T) {
	k, s := attach(2)
	var b strings.Builder
	k.Report(&b)
	if !strings.Contains(b.String(), "no findings") {
		t.Fatalf("clean report: %q", b.String())
	}
	s.Emit(0, 0, trace.KindRegionAlloc, base, 1)
	s.Emit(at(7), 1, trace.KindLoad, base, 4)
	b.Reset()
	k.Report(&b)
	out := b.String()
	if !strings.Contains(out, "SANCHECK [uninit-read] core 1") {
		t.Fatalf("report: %q", out)
	}
}
