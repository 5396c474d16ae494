package racecheck

import (
	"strings"
	"testing"

	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

const base = 0x8000_0000

// attach returns a 4-core checker subscribed to a fresh stream, every core
// a member of SVM system 0. The tests emit each event with the argument
// packing of the layer that emits it in a run.
func attach() (*Checker, *trace.Stream) {
	s := new(trace.Stream)
	k := NewChecker(4, base)
	k.Attach(s, make([]int, 4))
	return k, s
}

func TestUnorderedWriteWriteRaces(t *testing.T) {
	k, s := attach()
	s.Emit(10, 0, trace.KindStore, base, 8)
	s.Emit(20, 1, trace.KindStore, base, 8)
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
	k, s := attach()
	s.Emit(10, 0, trace.KindStore, base, 8)
	s.Emit(20, 1, trace.KindLoad, base, 8)
	if k.Clean() {
		t.Fatal("unordered write-read not detected")
	}
}

func TestUnorderedReadWriteRaces(t *testing.T) {
	k, s := attach()
	s.Emit(10, 0, trace.KindLoad, base, 8)
	s.Emit(20, 1, trace.KindStore, base, 8)
	if k.Clean() {
		t.Fatal("unordered read-write not detected")
	}
}

func TestConcurrentReadsAreClean(t *testing.T) {
	k, s := attach()
	for c := 0; c < 4; c++ {
		s.Emit(sim.Time(c), c, trace.KindLoad, base, 8)
	}
	if !k.Clean() {
		t.Fatalf("read-read flagged: %v", k.Races())
	}
}

func TestReleaseAcquireOrders(t *testing.T) {
	k, s := attach()
	s.Emit(10, 0, trace.KindStore, base, 8)
	s.Emit(11, 0, trace.KindLockRelease, 1, 0)
	s.Emit(12, 1, trace.KindLockAcquire, 1, 0)
	s.Emit(20, 1, trace.KindStore, base, 8)
	if !k.Clean() {
		t.Fatalf("lock-ordered writes flagged: %v", k.Races())
	}
}

func TestTransitiveOrdering(t *testing.T) {
	// 0 -> 1 -> 2 through two different sync objects (a mail from 0 to 1,
	// then page 3's ownership from 1 to 2) orders 0's write before 2's
	// read.
	k, s := attach()
	s.Emit(10, 0, trace.KindStore, base, 8)
	s.Emit(11, 0, trace.KindMailSend, 1, 0)
	s.Emit(12, 1, trace.KindMailRecv, 0, 0)
	s.Emit(13, 1, trace.KindOwnerYield, 3, 2)
	s.Emit(14, 2, trace.KindOwnerAcquire, 3, 0)
	s.Emit(30, 2, trace.KindLoad, base, 8)
	if !k.Clean() {
		t.Fatalf("transitively ordered access flagged: %v", k.Races())
	}
}

func TestAcquireWithoutReleaseDoesNotOrder(t *testing.T) {
	k, s := attach()
	s.Emit(10, 0, trace.KindStore, base, 8)
	// Core 1 acquires a lock core 0 never released: no edge.
	s.Emit(11, 1, trace.KindLockAcquire, 2, 0)
	s.Emit(20, 1, trace.KindStore, base, 8)
	if k.Clean() {
		t.Fatal("unrelated lock created a spurious edge")
	}
}

func TestSharedReadsThenUnorderedWrite(t *testing.T) {
	// Several cores read concurrently (legal), then a writer unordered
	// with two of them arrives: both conflicts are observed.
	k, s := attach()
	s.Emit(1, 0, trace.KindLoad, base, 4)
	s.Emit(2, 1, trace.KindLoad, base, 4)
	s.Emit(3, 2, trace.KindLoad, base, 4)
	s.Emit(4, 0, trace.KindLockRelease, 1, 0)
	s.Emit(5, 3, trace.KindLockAcquire, 1, 0) // ordered against core 0 only
	s.Emit(10, 3, trace.KindStore, base, 4)
	if k.Dynamic() != 2 {
		t.Fatalf("want 2 race observations (vs cores 1 and 2), got %d", k.Dynamic())
	}
}

func TestSameCoreNeverRaces(t *testing.T) {
	k, s := attach()
	s.Emit(1, 0, trace.KindStore, base, 8)
	s.Emit(2, 0, trace.KindLoad, base, 8)
	s.Emit(3, 0, trace.KindStore, base, 8)
	if !k.Clean() {
		t.Fatalf("single-core accesses flagged: %v", k.Races())
	}
}

func TestDisjointAddressesNeverRace(t *testing.T) {
	k, s := attach()
	s.Emit(1, 0, trace.KindStore, base, 8)
	s.Emit(2, 1, trace.KindStore, base+8, 8)
	if !k.Clean() {
		t.Fatalf("disjoint writes flagged: %v", k.Races())
	}
}

func TestOverlappingRangesRace(t *testing.T) {
	// A 16-byte write overlaps the tail granule of another core's write.
	k, s := attach()
	s.Emit(1, 0, trace.KindStore, base+12, 4)
	s.Emit(2, 1, trace.KindStore, base, 16)
	if k.Clean() {
		t.Fatal("overlapping ranges not detected")
	}
}

func TestPrivateMemoryIgnored(t *testing.T) {
	k, s := attach()
	s.Emit(1, 0, trace.KindStore, 0x1000, 8)
	s.Emit(2, 1, trace.KindStore, 0x1000, 8)
	if !k.Clean() {
		t.Fatal("private-memory accesses checked")
	}
}

func TestGranuleReportedOnce(t *testing.T) {
	k, s := attach()
	s.Emit(1, 0, trace.KindStore, base, 4)
	s.Emit(2, 1, trace.KindStore, base, 4)
	s.Emit(3, 2, trace.KindStore, base, 4)
	if len(k.Races()) != 1 {
		t.Fatalf("want 1 reported race for the granule, got %d", len(k.Races()))
	}
	if k.Dynamic() < 2 {
		t.Fatalf("dynamic observations undercounted: %d", k.Dynamic())
	}
}

func TestMaxRacesCap(t *testing.T) {
	k, s := attach()
	const granules = maxRaces + 4
	for i := uint32(0); i < granules; i++ {
		s.Emit(1, 0, trace.KindStore, uint64(base+i*4), 4)
		s.Emit(2, 1, trace.KindStore, uint64(base+i*4), 4)
	}
	if len(k.Races()) != maxRaces {
		t.Fatalf("cap not applied: %d races reported", len(k.Races()))
	}
	if k.Dynamic() != granules {
		t.Fatalf("want %d dynamic observations, got %d", granules, k.Dynamic())
	}
}

func TestTimelineAttached(t *testing.T) {
	k, s := attach()
	s.SetRing(trace.NewBuffer(64))
	s.Emit(5, 0, trace.KindFault, base, 0)
	s.Emit(sim.Microseconds(1000), 1, trace.KindBarrier, 1, 0) // far away
	s.Emit(10, 0, trace.KindStore, base, 8)
	s.Emit(20, 1, trace.KindStore, base, 8)
	r := k.Races()[0]
	if len(r.Timeline) != 1 || r.Timeline[0].Kind != trace.KindFault {
		t.Fatalf("timeline window wrong: %+v", r.Timeline)
	}
	if !strings.Contains(r.String(), "RACE at") {
		t.Fatalf("report format: %q", r.String())
	}
}

func TestReportFormat(t *testing.T) {
	k, s := attach()
	var clean strings.Builder
	k.Report(&clean)
	if !strings.Contains(clean.String(), "no races") {
		t.Fatalf("clean report: %q", clean.String())
	}
	s.Emit(10, 0, trace.KindStore, base, 8)
	s.Emit(20, 1, trace.KindLoad, base, 8)
	var dirty strings.Builder
	k.Report(&dirty)
	if !strings.Contains(dirty.String(), "RACE at 0x80000000") {
		t.Fatalf("dirty report: %q", dirty.String())
	}
}
