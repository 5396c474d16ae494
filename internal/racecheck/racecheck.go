// Package racecheck is a happens-before data-race detector for the
// *simulated* machine — ThreadSanitizer's algorithm pointed at MetalSVM
// workloads instead of host threads.
//
// The paper's lazy-release model (§6.2) is only correct for lock-disciplined
// programs: an unsynchronized access silently reads stale cache lines, and
// without this checker the simulator can only reveal that as a wrong result.
// The checker makes the failure a diagnosis instead: every simulated load
// and store to the shared region is tracked in FastTrack-style shadow state,
// synchronization operations (SVM lock acquire/release, mailbox send/recv —
// which transitively covers kernel barriers and ownership transfers, both
// built from mail — plus explicit ownership-transfer edges) build the
// happens-before order out of vector clocks, and any pair of conflicting
// accesses not ordered by that relation is reported with core ids, virtual
// addresses, simulated timestamps, and the trace timeline around the race.
//
// The checker is a subscriber of the chip's event stream (Attach): it sees
// the same loads, stores, mail, lock and ownership events every other
// observer sees, and a run without it pays one predictable branch per
// memory access for the unsubscribed kind. Enabling it never changes
// simulated time: subscribers charge no cycles, so a run is bit-identical
// with and without the checker.
package racecheck

import (
	"fmt"
	"io"
	"strings"

	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// granuleShift is the tracking granularity: accesses are resolved to
// 4-byte-aligned granules. Sub-word false sharing (two cores touching
// different bytes of one word) is coarsened to a conflict, which matches
// the protocol's visibility unit far more closely than it misses.
const granuleShift = 2

// maxRaces bounds the number of fully reported races. Further dynamic race
// observations only count towards Dynamic.
const maxRaces = 16

// timelineWindow is the half-width of the trace timeline captured around
// each race: 20 simulated microseconds.
const timelineWindow sim.Duration = 20e6

// Access is one side of a reported race.
type Access struct {
	Core  int
	Write bool
	At    sim.Time
}

func (a Access) String() string {
	op := "read"
	if a.Write {
		op = "write"
	}
	return fmt.Sprintf("core %d %s at %.3fus", a.Core, op, a.At.Microseconds())
}

// Race is one detected pair of conflicting, unordered accesses.
type Race struct {
	// Addr is the granule base virtual address both accesses touched.
	Addr uint32
	// First is the access recorded earlier, Second the one that exposed
	// the race.
	First, Second Access
	// Timeline holds the protocol trace events around the race (empty when
	// no tracer is installed).
	Timeline []trace.Event
}

func (r Race) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RACE at %#x: %v vs %v (no happens-before edge)", r.Addr, r.First, r.Second)
	if len(r.Timeline) > 0 {
		b.WriteString("\n  trace timeline around the race:")
		for _, e := range r.Timeline {
			fmt.Fprintf(&b, "\n    %v", e)
		}
	}
	return b.String()
}

// word is the shadow state of one granule.
type word struct {
	w   epoch    // last write
	wAt sim.Time // its simulated timestamp
	r   epoch    // last read (single-reader fast path)
	rAt sim.Time
	// rs, once allocated, replaces r: per-core last-read clocks and times
	// for read-shared granules.
	rs []readSlot
}

type readSlot struct {
	clock uint32
	at    sim.Time
}

// Checker is one chip's race detector. It is not goroutine-safe, which is
// fine: the simulator runs exactly one process at a time.
type Checker struct {
	n    int    // cores
	base uint32 // lowest checked virtual address (the shared region)

	clocks []vclock // per-core vector clock; clocks[c][c] is c's own epoch
	sync   map[any]vclock

	shadow   map[uint32]*word
	races    []Race
	reported map[uint32]bool // granules with an already-reported race
	dynamic  uint64          // all race observations, including suppressed

	traceSrc func() []trace.Event // timeline source for reports (Attach: the stream's ring)
	space    []int                // core -> index of its SVM system (see Attach)
}

// NewChecker creates a detector for an n-core chip whose checked (shared)
// region starts at base.
func NewChecker(n int, base uint32) *Checker {
	k := &Checker{
		n:        n,
		base:     base,
		clocks:   make([]vclock, n),
		sync:     make(map[any]vclock),
		shadow:   make(map[uint32]*word),
		reported: make(map[uint32]bool),
	}
	for c := range k.clocks {
		k.clocks[c] = newVClock(n)
		k.clocks[c][c] = 1 // epoch 0 is reserved for "never accessed"
	}
	return k
}

// Races returns the fully reported races, in detection order.
func (k *Checker) Races() []Race { return k.races }

// Dynamic returns the total number of race observations, including ones
// suppressed after maxRaces or after a granule's first report.
func (k *Checker) Dynamic() uint64 { return k.dynamic }

// Clean reports whether no race was observed.
func (k *Checker) Clean() bool { return k.dynamic == 0 }

// Report writes a human-readable summary.
func (k *Checker) Report(w io.Writer) {
	if k.Clean() {
		fmt.Fprintf(w, "racecheck: no races detected\n")
		return
	}
	fmt.Fprintf(w, "racecheck: %d race observation(s), %d reported:\n", k.dynamic, len(k.races))
	for _, r := range k.races {
		fmt.Fprintf(w, "%v\n", r)
	}
}

// --- Event intake -----------------------------------------------------------

// Sync-object keys. Core ids are chip-global and a core belongs to exactly
// one cluster, so a (from, to) pair names one mailbox slot on the whole
// chip; lock words and pages belong to an SVM system, so they carry the
// emitting core's system index and several systems on one chip (coherency
// domains) never alias each other's locks.
type (
	mailKey struct {
		free     bool // the slot-free edge back to the sender, not the deposit
		from, to int
	}
	lockKey struct {
		space int
		word  uint64
	}
	pageKey struct {
		space int
		page  uint64
	}
)

// Attach subscribes the checker to a chip's event stream and takes the
// stream's ring as the timeline source for its reports. space maps each core
// to the index of the SVM system it is a member of.
func (k *Checker) Attach(s *trace.Stream, space []int) {
	k.space = space
	k.traceSrc = func() []trace.Event { return s.Ring().Events() }
	s.Subscribe(k.onEvent, trace.KindLoad, trace.KindStore,
		trace.KindMailSend, trace.KindMailRecv,
		trace.KindLockAcquire, trace.KindLockRelease,
		trace.KindOwnerYield, trace.KindOwnerAcquire)
}

// onEvent turns the stream's events into accesses and happens-before edges.
// A deposit is a release of the sender's history into the slot; observing
// the slot free first acquires the receiver's consumption (the sender's
// busy-wait on the flag is real synchronization through uncached MPB
// memory). A consume acquires the deposit and releases the slot back to the
// sender. Kernel barriers and the ownership protocol's request/ack mails are
// built from these sends, so their ordering falls out transitively.
func (k *Checker) onEvent(e trace.Event) {
	core, peer := int(e.Core), int(e.Arg1)
	switch e.Kind {
	case trace.KindLoad, trace.KindStore:
		// Accesses below the checked base (private memory) are ignored.
		vaddr, size := uint32(e.Arg1), uint32(e.Arg2)
		if vaddr < k.base || size == 0 {
			return
		}
		last := (vaddr + size - 1) >> granuleShift
		for g := vaddr >> granuleShift; g <= last; g++ {
			k.onGranule(core, g<<granuleShift, e.Kind == trace.KindStore, e.At)
		}
	case trace.KindMailSend:
		k.acquire(core, mailKey{true, core, peer})
		k.release(core, mailKey{false, core, peer})
	case trace.KindMailRecv:
		k.acquire(core, mailKey{false, peer, core})
		k.release(core, mailKey{true, peer, core})
	case trace.KindLockAcquire:
		k.acquire(core, lockKey{k.space[core], e.Arg1})
	case trace.KindLockRelease:
		k.release(core, lockKey{k.space[core], e.Arg1})
	case trace.KindOwnerYield:
		k.release(core, pageKey{k.space[core], e.Arg1})
	case trace.KindOwnerAcquire:
		k.acquire(core, pageKey{k.space[core], e.Arg1})
	}
}

// acquire orders the sync object keyed by key before core's subsequent
// accesses (lock acquired, mail consumed, ownership received).
func (k *Checker) acquire(core int, key any) {
	if vc, ok := k.sync[key]; ok {
		k.clocks[core].join(vc)
	}
}

// release orders core's past accesses before whatever later acquires key
// (lock released, mail deposited, ownership handed over), then starts a new
// epoch for the core.
func (k *Checker) release(core int, key any) {
	vc, ok := k.sync[key]
	if !ok {
		vc = newVClock(k.n)
		k.sync[key] = vc
	}
	vc.join(k.clocks[core])
	k.clocks[core][core]++
}

// onGranule checks one access to the granule at addr against its shadow
// state and records it.
func (k *Checker) onGranule(core int, addr uint32, write bool, at sim.Time) {
	s := k.shadow[addr]
	if s == nil {
		s = &word{}
		k.shadow[addr] = s
	}
	vc := k.clocks[core]
	me := epoch{clock: vc[core], core: int32(core)}

	// A prior write conflicts with everything.
	if s.w.clock != 0 && int(s.w.core) != core && !s.w.before(vc) {
		k.report(addr, Access{Core: int(s.w.core), Write: true, At: s.wAt},
			Access{Core: core, Write: write, At: at})
	}
	if write {
		// Writes also conflict with unordered prior reads.
		if s.rs != nil {
			for c, slot := range s.rs {
				if slot.clock != 0 && c != core && slot.clock > vc[c] {
					k.report(addr, Access{Core: c, Write: false, At: slot.at},
						Access{Core: core, Write: true, At: at})
				}
			}
		} else if s.r.clock != 0 && int(s.r.core) != core && !s.r.before(vc) {
			k.report(addr, Access{Core: int(s.r.core), Write: false, At: s.rAt},
				Access{Core: core, Write: true, At: at})
		}
		// The write becomes the new frontier; prior reads are subsumed.
		s.w, s.wAt = me, at
		s.r, s.rs = epoch{}, nil
		return
	}
	// Read: update the read frontier, upgrading to the per-core slots when
	// a second concurrent reader appears (FastTrack's read-shared state).
	switch {
	case s.rs != nil:
		s.rs[core] = readSlot{clock: me.clock, at: at}
	case s.r.clock == 0 || int(s.r.core) == core || s.r.before(vc):
		s.r, s.rAt = me, at
	default:
		s.rs = make([]readSlot, k.n)
		s.rs[s.r.core] = readSlot{clock: s.r.clock, at: s.rAt}
		s.rs[core] = readSlot{clock: me.clock, at: at}
		s.r = epoch{}
	}
}

func (k *Checker) report(addr uint32, first, second Access) {
	k.dynamic++
	if k.reported[addr] || len(k.races) >= maxRaces {
		return
	}
	k.reported[addr] = true
	r := Race{Addr: addr, First: first, Second: second}
	if k.traceSrc != nil {
		lo, hi := first.At, second.At
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo > timelineWindow {
			lo -= timelineWindow
		} else {
			lo = 0
		}
		r.Timeline = trace.Filter(k.traceSrc(), trace.Between(lo, hi+timelineWindow+1))
	}
	k.races = append(k.races, r)
}
