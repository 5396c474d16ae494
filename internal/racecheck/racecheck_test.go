package racecheck

import (
	"strings"
	"testing"

	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

const base = 0x8000_0000

func mk(t *testing.T) *Checker {
	t.Helper()
	return NewChecker(4, base)
}

func TestUnorderedWriteWriteRaces(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 8, true, 10)
	k.OnAccess(1, base, 8, true, 20)
	if k.Clean() {
		t.Fatal("unordered write-write not detected")
	}
	r := k.Races()[0]
	if r.First.Core != 0 || !r.First.Write || r.Second.Core != 1 || !r.Second.Write {
		t.Fatalf("wrong race attribution: %+v", r)
	}
	if r.First.At != 10 || r.Second.At != 20 {
		t.Fatalf("wrong timestamps: %+v", r)
	}
}

func TestUnorderedWriteReadRaces(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 8, true, 10)
	k.OnAccess(1, base, 8, false, 20)
	if k.Clean() {
		t.Fatal("unordered write-read not detected")
	}
}

func TestUnorderedReadWriteRaces(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 8, false, 10)
	k.OnAccess(1, base, 8, true, 20)
	if k.Clean() {
		t.Fatal("unordered read-write not detected")
	}
}

func TestConcurrentReadsAreClean(t *testing.T) {
	k := mk(t)
	for c := 0; c < 4; c++ {
		k.OnAccess(c, base, 8, false, sim.Time(c))
	}
	if !k.Clean() {
		t.Fatalf("read-read flagged: %v", k.Races())
	}
}

func TestReleaseAcquireOrders(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 8, true, 10)
	k.Release(0, "lock")
	k.Acquire(1, "lock")
	k.OnAccess(1, base, 8, true, 20)
	if !k.Clean() {
		t.Fatalf("lock-ordered writes flagged: %v", k.Races())
	}
}

func TestTransitiveOrdering(t *testing.T) {
	// 0 -> 1 -> 2 through two different sync objects orders 0's write
	// before 2's read.
	k := mk(t)
	k.OnAccess(0, base, 8, true, 10)
	k.Release(0, "a")
	k.Acquire(1, "a")
	k.Release(1, "b")
	k.Acquire(2, "b")
	k.OnAccess(2, base, 8, false, 30)
	if !k.Clean() {
		t.Fatalf("transitively ordered access flagged: %v", k.Races())
	}
}

func TestAcquireWithoutReleaseDoesNotOrder(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 8, true, 10)
	// Core 1 acquires a lock core 0 never released: no edge.
	k.Acquire(1, "other")
	k.OnAccess(1, base, 8, true, 20)
	if k.Clean() {
		t.Fatal("unrelated lock created a spurious edge")
	}
}

func TestSharedReadsThenUnorderedWrite(t *testing.T) {
	// Several cores read concurrently (legal), then a writer unordered
	// with two of them arrives: both conflicts are observed.
	k := mk(t)
	k.OnAccess(0, base, 4, false, 1)
	k.OnAccess(1, base, 4, false, 2)
	k.OnAccess(2, base, 4, false, 3)
	k.Release(0, "l")
	k.Acquire(3, "l") // ordered against core 0 only
	k.OnAccess(3, base, 4, true, 10)
	if k.Dynamic() != 2 {
		t.Fatalf("want 2 race observations (vs cores 1 and 2), got %d", k.Dynamic())
	}
}

func TestSameCoreNeverRaces(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 8, true, 1)
	k.OnAccess(0, base, 8, false, 2)
	k.OnAccess(0, base, 8, true, 3)
	if !k.Clean() {
		t.Fatalf("single-core accesses flagged: %v", k.Races())
	}
}

func TestDisjointAddressesNeverRace(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 8, true, 1)
	k.OnAccess(1, base+8, 8, true, 2)
	if !k.Clean() {
		t.Fatalf("disjoint writes flagged: %v", k.Races())
	}
}

func TestOverlappingRangesRace(t *testing.T) {
	// A 16-byte write overlaps the tail granule of another core's write.
	k := mk(t)
	k.OnAccess(0, base+12, 4, true, 1)
	k.OnAccess(1, base, 16, true, 2)
	if k.Clean() {
		t.Fatal("overlapping ranges not detected")
	}
}

func TestPrivateMemoryIgnored(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, 0x1000, 8, true, 1)
	k.OnAccess(1, 0x1000, 8, true, 2)
	if !k.Clean() {
		t.Fatal("private-memory accesses checked")
	}
}

func TestGranuleReportedOnce(t *testing.T) {
	k := mk(t)
	k.OnAccess(0, base, 4, true, 1)
	k.OnAccess(1, base, 4, true, 2)
	k.OnAccess(2, base, 4, true, 3)
	if len(k.Races()) != 1 {
		t.Fatalf("want 1 reported race for the granule, got %d", len(k.Races()))
	}
	if k.Dynamic() < 2 {
		t.Fatalf("dynamic observations undercounted: %d", k.Dynamic())
	}
}

func TestMaxRacesCap(t *testing.T) {
	k := mk(t)
	const granules = maxRaces + 4
	for i := uint32(0); i < granules; i++ {
		k.OnAccess(0, base+i*4, 4, true, 1)
		k.OnAccess(1, base+i*4, 4, true, 2)
	}
	if len(k.Races()) != maxRaces {
		t.Fatalf("cap not applied: %d races reported", len(k.Races()))
	}
	if k.Dynamic() != granules {
		t.Fatalf("want %d dynamic observations, got %d", granules, k.Dynamic())
	}
}

func TestTimelineAttached(t *testing.T) {
	buf := trace.NewBuffer(64)
	buf.Emit(5, 0, trace.KindFault, uint64(base), 0)
	buf.Emit(sim.Microseconds(1000), 1, trace.KindBarrier, 1, 0) // far away
	k := mk(t)
	k.traceSrc = buf.Events
	k.OnAccess(0, base, 8, true, 10)
	k.OnAccess(1, base, 8, true, 20)
	r := k.Races()[0]
	if len(r.Timeline) != 1 || r.Timeline[0].Kind != trace.KindFault {
		t.Fatalf("timeline window wrong: %+v", r.Timeline)
	}
	if !strings.Contains(r.String(), "RACE at") {
		t.Fatalf("report format: %q", r.String())
	}
}

func TestReportFormat(t *testing.T) {
	k := mk(t)
	var clean strings.Builder
	k.Report(&clean)
	if !strings.Contains(clean.String(), "no races") {
		t.Fatalf("clean report: %q", clean.String())
	}
	k.OnAccess(0, base, 8, true, 10)
	k.OnAccess(1, base, 8, false, 20)
	var dirty strings.Builder
	k.Report(&dirty)
	if !strings.Contains(dirty.String(), "RACE at 0x80000000") {
		t.Fatalf("dirty report: %q", dirty.String())
	}
}
