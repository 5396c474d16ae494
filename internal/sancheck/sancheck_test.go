// Unit tests driving the checker's event intake directly. Each sanitizer
// class has a positive control (an event sequence that must be flagged) and
// a negative twin (the disciplined variant must stay clean). The
// integration tests in workloads_test.go run the same classes against real
// simulated workloads through the core wiring.
package sancheck

import (
	"strings"
	"testing"

	"metalsvm/internal/sim"
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

func TestUninitReadFlaggedOnceAndWriteSilences(t *testing.T) {
	k := NewChecker(4, base)
	k.OnRegionAlloc(0, base, 1)
	k.OnAccess(0, base+8, 8, false, at(1)) // read-before-write: 2 granules
	if got := k.CountOf(UninitRead); got != 2 {
		t.Fatalf("uninit reads = %d, want 2", got)
	}
	k.OnAccess(0, base+8, 8, false, at(2)) // repeat: deduped
	if got := k.CountOf(UninitRead); got != 2 {
		t.Fatalf("uninit reads after repeat = %d, want 2", got)
	}
	k.OnAccess(1, base+16, 8, true, at(3)) // init
	k.OnAccess(0, base+16, 8, false, at(4))
	if got := k.CountOf(UninitRead); got != 2 {
		t.Fatalf("initialized read flagged: %v", k.Findings())
	}
	if k.Clean() {
		t.Fatal("checker reports clean despite findings")
	}
}

func TestSubWordWriteMarksWholeGranule(t *testing.T) {
	k := NewChecker(2, base)
	k.OnRegionAlloc(0, base, 1)
	k.OnAccess(0, base+1, 1, true, at(1)) // one byte marks the granule
	k.OnAccess(1, base, 4, false, at(2))
	if countOf(k, shadowKinds) != 0 {
		t.Fatalf("coarsened granule flagged: %v", k.Findings())
	}
}

func TestFreeClassification(t *testing.T) {
	k := NewChecker(2, base)
	k.OnRegionAlloc(0, base, 2)
	k.OnAccess(0, base, 8, true, at(1))
	k.OnRegionFree(0, base, 2, at(2))

	k.OnInvalidAccess(1, base+64, false, at(3))
	if got := k.CountOf(UseAfterFree); got != 1 {
		t.Fatalf("use-after-free = %d, want 1: %v", got, k.Findings())
	}
	k.OnBadFree(1, base, at(4))
	if got := k.CountOf(DoubleFree); got != 1 {
		t.Fatalf("double-free = %d, want 1: %v", got, k.Findings())
	}
	k.OnBadFree(1, base+0x100000, at(5))
	if got := k.CountOf(BadFree); got != 1 {
		t.Fatalf("bad-free = %d, want 1: %v", got, k.Findings())
	}
	k.OnInvalidAccess(0, base+0x200000, true, at(6))
	if got := k.CountOf(WildAccess); got != 1 {
		t.Fatalf("wild-access = %d, want 1: %v", got, k.Findings())
	}
}

func TestFreeWithLiveMappingFlagged(t *testing.T) {
	k := NewChecker(3, base)
	k.OnRegionAlloc(0, base, 2)
	k.OnMap(1, base, true)
	k.OnMap(1, base+4096, true)
	k.OnMap(2, base, true)
	k.OnMap(1, base, false)
	k.OnMap(1, base+4096, false)
	// Core 2 never unmapped page 0: freeing now recycles a frame it can
	// still reach.
	k.OnRegionFree(0, base, 2, at(9))
	if got := k.CountOf(UseAfterFree); got != 1 {
		t.Fatalf("live-mapping free = %d findings, want 1: %v", got, k.Findings())
	}
	if f := k.Findings()[0]; !strings.Contains(f.Detail, "core 2") {
		t.Fatalf("wrong core blamed: %v", f)
	}
}

func TestCleanFreeAfterUnmapIsSilent(t *testing.T) {
	k := NewChecker(2, base)
	k.OnRegionAlloc(0, base, 1)
	k.OnMap(0, base, true)
	k.OnMap(1, base, true)
	k.OnMap(0, base, false)
	k.OnMap(1, base, false)
	k.OnRegionFree(0, base, 1, at(5))
	if countOf(k, shadowKinds) != 0 {
		t.Fatalf("disciplined free flagged: %v", k.Findings())
	}
}

func TestReadOnlyWrite(t *testing.T) {
	k := NewChecker(2, base)
	k.OnRegionAlloc(0, base, 1)
	k.OnRegionProtect(0, base, 1)
	k.OnReadOnlyWrite(1, base+12, at(3))
	if got := k.CountOf(ReadOnlyWrite); got != 1 {
		t.Fatalf("readonly-write = %d, want 1", got)
	}
}

func TestLocksetPositiveUnlockedWriters(t *testing.T) {
	k := NewChecker(2, base)
	k.OnAccess(0, base, 8, true, at(1))
	k.OnAccess(1, base, 8, true, at(2)) // same epoch, no locks held
	if got := k.CountOf(LocksetRace); got == 0 {
		t.Fatalf("unlocked concurrent writers not flagged: %v", k.Findings())
	}
}

func TestLocksetPositiveInconsistentLocks(t *testing.T) {
	k := NewChecker(2, base)
	k.OnLockAcquire(0, 1, 0, at(1))
	k.OnAccess(0, base, 4, true, at(2))
	k.OnLockRelease(0, 1, 0, at(3))

	k.OnLockAcquire(0, 2, 1, at(4))
	k.OnAccess(1, base, 4, true, at(5)) // set becomes {lock 2}
	k.OnLockRelease(0, 2, 1, at(6))

	k.OnLockAcquire(0, 1, 0, at(7))
	k.OnAccess(0, base, 4, true, at(8)) // {lock 2} ∩ {lock 1} = {}
	k.OnLockRelease(0, 1, 0, at(9))
	if got := k.CountOf(LocksetRace); got != 1 {
		t.Fatalf("inconsistent locking = %d findings, want 1: %v", got, k.Findings())
	}
}

func TestLocksetConsistentLockIsClean(t *testing.T) {
	k := NewChecker(2, base)
	for i := 0; i < 3; i++ {
		core := i % 2
		k.OnLockAcquire(0, 7, core, at(10*i))
		k.OnAccess(core, base, 8, true, at(10*i+1))
		k.OnAccess(core, base, 8, false, at(10*i+2))
		k.OnLockRelease(0, 7, core, at(10*i+3))
	}
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("consistently locked accesses flagged: %v", k.Findings())
	}
}

func TestLocksetBarrierEpochReset(t *testing.T) {
	k := NewChecker(2, base)
	k.OnAccess(0, base, 8, true, at(1)) // init phase, no locks
	k.OnBarrier(0, at(2))
	k.OnBarrier(1, at(2))
	k.OnAccess(1, base, 8, true, at(3)) // next phase: ordered by the barrier
	k.OnAccess(1, base, 8, false, at(4))
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("barrier-phased accesses flagged: %v", k.Findings())
	}
	// But within the second phase, an unlocked second writer still races.
	k.OnAccess(0, base, 8, true, at(5))
	if k.CountOf(LocksetRace) == 0 {
		t.Fatal("intra-phase unlocked writers not flagged")
	}
}

func TestLocksetOwnershipEpochReset(t *testing.T) {
	k := NewChecker(2, base)
	k.OnAccess(0, base+4096, 8, true, at(1))
	k.OnOwnershipAcquired(0, 1, 1) // page index 1 handed to core 1
	k.OnAccess(1, base+4096, 8, true, at(2))
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("ownership-ordered accesses flagged: %v", k.Findings())
	}
	// A different page saw no transfer: concurrent writers there race.
	k.OnAccess(0, base, 8, true, at(3))
	k.OnAccess(1, base, 8, true, at(4))
	if k.CountOf(LocksetRace) == 0 {
		t.Fatal("transfer on page 1 silenced page 0")
	}
}

func TestLocksetSharedReadOnlyIsClean(t *testing.T) {
	k := NewChecker(3, base)
	k.OnAccess(0, base, 8, true, at(1))
	k.OnBarrier(0, at(2))
	k.OnBarrier(1, at(2))
	k.OnBarrier(2, at(2))
	// Read-shared after the publication barrier, never written again.
	k.OnAccess(1, base, 8, false, at(3))
	k.OnAccess(2, base, 8, false, at(4))
	k.OnAccess(0, base, 8, false, at(5))
	if countOf(k, locksetKinds) != 0 {
		t.Fatalf("read-shared granule flagged: %v", k.Findings())
	}
}

func TestLockOrderCycleReported(t *testing.T) {
	k := NewChecker(2, base)
	// Core 0: A then B. Core 1: B then A. The run completes (the test feeds
	// a serialized interleaving), but the order graph has a cycle.
	k.OnLockAcquire(0, 1, 0, at(1))
	k.OnLockAcquire(0, 2, 0, at(2))
	k.OnLockRelease(0, 2, 0, at(3))
	k.OnLockRelease(0, 1, 0, at(4))
	k.OnLockAcquire(0, 2, 1, at(5))
	k.OnLockAcquire(0, 1, 1, at(6))
	k.OnLockRelease(0, 1, 1, at(7))
	k.OnLockRelease(0, 2, 1, at(8))
	if got := k.CountOf(LockOrderCycle); got != 1 {
		t.Fatalf("cycle findings = %d, want 1: %v", got, k.Findings())
	}
	f := k.Findings()[0]
	if !strings.Contains(f.Detail, "svm lock 1") || !strings.Contains(f.Detail, "svm lock 2") {
		t.Fatalf("cycle detail incomplete: %v", f)
	}
}

func TestLockOrderNestingWithoutCycleIsClean(t *testing.T) {
	k := NewChecker(2, base)
	for core := 0; core < 2; core++ {
		k.OnLockAcquire(0, 1, core, at(4*core+1))
		k.OnLockAcquire(0, 2, core, at(4*core+2))
		k.OnTASAcquire(core, 5, at(4*core+3))
		k.OnTASRelease(core, 5, at(4*core+3))
		k.OnLockRelease(0, 2, core, at(4*core+4))
		k.OnLockRelease(0, 1, core, at(4*core+4))
	}
	if countOf(k, orderKinds) != 0 {
		t.Fatalf("consistent nesting flagged: %v", k.Findings())
	}
}

func TestLockAcrossBarrierFlagged(t *testing.T) {
	k := NewChecker(2, base)
	k.OnLockAcquire(0, 3, 0, at(1))
	k.OnBarrier(0, at(2))
	if got := k.CountOf(LockAcrossBarrier); got != 1 {
		t.Fatalf("lock-across-barrier = %d, want 1: %v", got, k.Findings())
	}
	k.OnBarrier(0, at(3)) // same lock: deduped
	if got := k.CountOf(LockAcrossBarrier); got != 1 {
		t.Fatalf("dedup failed: %d findings", got)
	}
}

func TestMaxFindingsBoundsReportNotDynamic(t *testing.T) {
	k := NewChecker(2, base)
	k.OnRegionAlloc(0, base, 1)
	const reads = maxFindings + 3
	for i := uint32(0); i < reads; i++ {
		k.OnAccess(0, base+i*4, 4, false, at(int(i)))
	}
	if len(k.Findings()) != maxFindings {
		t.Fatalf("recorded %d findings, want %d", len(k.Findings()), maxFindings)
	}
	if k.Dynamic() != reads {
		t.Fatalf("dynamic = %d, want %d", k.Dynamic(), reads)
	}
}

func TestReportFormat(t *testing.T) {
	k := NewChecker(2, base)
	var b strings.Builder
	k.Report(&b)
	if !strings.Contains(b.String(), "no findings") {
		t.Fatalf("clean report: %q", b.String())
	}
	k.OnRegionAlloc(0, base, 1)
	k.OnAccess(1, base, 4, false, at(7))
	b.Reset()
	k.Report(&b)
	out := b.String()
	if !strings.Contains(out, "SANCHECK [uninit-read] core 1") {
		t.Fatalf("report: %q", out)
	}
}
