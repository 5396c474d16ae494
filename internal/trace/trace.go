// Package trace is the simulator's one instrumentation path. Every layer
// reports what it does — page faults, ownership transfers, mail, barriers,
// loads and stores, lock and test-and-set transitions, region lifecycle —
// as events on its chip's Stream, and everything that observes a run
// subscribes to the kinds it needs: the bounded ring Buffer retains the
// protocol kinds (with summarization and timeline formatting for debugging
// and for understanding where a workload's time goes), the race checker and
// the sanitizer rebuild their state from the rest.
//
// Observation is optional and free of simulated cost: a nil *Stream, a nil
// *Buffer and a kind nobody subscribed to each cost one branch. Nothing here
// is goroutine-safe, which is fine — the simulator is single-threaded by
// construction.
package trace

import (
	"fmt"
	"io"
	"sort"

	"metalsvm/internal/sim"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindFault: a page fault began (Arg1 = faulting vaddr).
	KindFault Kind = iota
	// KindFirstTouch: a frame was allocated (Arg1 = page index, Arg2 = frame).
	KindFirstTouch
	// KindOwnerRequest: an ownership request was sent (Arg1 = page index,
	// Arg2 = owner asked).
	KindOwnerRequest
	// KindOwnerTransfer: ownership was handed over (Arg1 = page index,
	// Arg2 = new owner).
	KindOwnerTransfer
	// KindMailSend: a mail was deposited in the receiver's MPB; the sender
	// has then also seen the slot free, i.e. the previous mail consumed
	// (Arg1 = receiver, Arg2 = type).
	KindMailSend
	// KindMailRecv: a mail was consumed (Arg1 = sender, Arg2 = type).
	KindMailRecv
	// KindBarrier: a kernel entered a barrier (Arg1 = its barrier count,
	// this one included). Leaving it is KindBarrierDone.
	KindBarrier
	// KindMigration: a frame migrated on next-touch (Arg1 = page index,
	// Arg2 = new frame).
	KindMigration
	// KindIPI: an inter-processor interrupt was raised (Arg1 = target).
	KindIPI
	// KindFaultInject: the fault injector fired (Arg1 = route, Arg2 = kind,
	// both from internal/faults enums).
	KindFaultInject
	// KindRetransmit: the hardened mailbox redeposited or re-nudged a mail
	// (Arg1 = receiver, Arg2 = sequence number).
	KindRetransmit
	// KindWatchdog: the cluster progress watchdog fired (Arg1 = consecutive
	// frozen windows, Arg2 = progress count at the freeze).
	KindWatchdog
	// KindCrash: a core crash-halted permanently (Arg1 = 1 if its kernel
	// main had already finished).
	KindCrash
	// KindDirCommit: the replicated directory committed an ownership op
	// (Arg1 = page index, Arg2 = op number).
	KindDirCommit
	// KindDirFailover: a directory replica completed a view change and took
	// over as primary (Arg1 = new view, Arg2 = op number carried over).
	KindDirFailover
	// KindDirReclaim: the directory revoked a dead owner's page and
	// reassigned it (Arg1 = page index, Arg2 = new owner).
	KindDirReclaim

	// The kinds from here on are what the checkers rebuild their state
	// from. They fire far more often than the protocol kinds above (every
	// load and store is one), so the ring never retains them.

	// KindLoad / KindStore: an access passed translation — any page-fault
	// protocol it triggered has completed (Arg1 = vaddr, Arg2 = bytes).
	KindLoad
	KindStore
	// KindMap / KindUnmap: the core's page table gained an entry for a page
	// that had none, or dropped one (Arg1 = vaddr).
	KindMap
	KindUnmap
	// KindTASAcquire / KindTASRelease: a test-and-set succeeded, or the
	// clear landed; dropped requests are not transitions (Arg1 = register).
	KindTASAcquire
	KindTASRelease
	// KindLockAcquire / KindLockRelease: the core holds, or is about to
	// release, an SVM lock (Arg1 = lock word, the id normalised).
	KindLockAcquire
	KindLockRelease
	// KindOwnerYield: the owner flushed and invalidated and now hands the
	// page over (Arg1 = page index, Arg2 = requester). KindOwnerTransfer
	// marks the start of the same service, before those cycles are charged.
	KindOwnerYield
	// KindOwnerAcquire: the core completed an ownership acquisition
	// (Arg1 = page index).
	KindOwnerAcquire
	// KindBarrierDone: the kernel left the barrier KindBarrier announced
	// (Arg1 = the same count).
	KindBarrierDone
	// KindRegionAlloc / KindRegionFree / KindRegionProtect: a collective
	// region was reserved, returned its frames, or became read-only
	// (Arg1 = base vaddr, Arg2 = pages).
	KindRegionAlloc
	KindRegionFree
	KindRegionProtect
	// KindBadFree, KindInvalidAccess, KindReadOnlyWrite: the SVM layer is
	// about to panic on a free of a non-region (Arg1 = base), a fault
	// outside every live region (Arg1 = vaddr, Arg2 = 1 for a write) or a
	// store to a read-only region (Arg1 = vaddr).
	KindBadFree
	KindInvalidAccess
	KindReadOnlyWrite
	kindCount
)

// ringKinds bounds the protocol kinds a Stream's ring retains.
const ringKinds = KindLoad

var kindNames = [kindCount]string{
	"fault", "first-touch", "owner-req", "owner-transfer",
	"mail-send", "mail-recv", "barrier", "migration", "ipi",
	"fault-inject", "retransmit", "watchdog",
	"crash", "dir-commit", "dir-failover", "dir-reclaim",
	"load", "store", "map", "unmap", "tas-acquire", "tas-release",
	"lock-acquire", "lock-release", "owner-yield", "owner-acquire",
	"barrier-done", "region-alloc", "region-free", "region-protect",
	"bad-free", "invalid-access", "readonly-write",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Time
	Core int32
	Kind Kind
	Arg1 uint64
	Arg2 uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%12.3fus core%-2d %-14s %#x %#x",
		e.At.Microseconds(), e.Core, e.Kind, e.Arg1, e.Arg2)
}

// Stream is one chip's event stream: the single path from the model to
// whatever observes it. Subscribers of an event's kind are called in
// subscription order on the emitting core's goroutine; they must not charge
// simulated time, which is what keeps an observed run bit-identical to a
// plain one. The zero value is a stream nobody listens to yet.
type Stream struct {
	subs [kindCount][]func(Event)
	ring *Buffer
}

// Emit delivers an event to the subscribers of its kind. A nil stream and a
// kind without subscribers are no-ops that cost one branch and allocate
// nothing — loads and stores emit, so a run that only traces pays no
// fan-out per access.
func (s *Stream) Emit(at sim.Time, core int, kind Kind, arg1, arg2 uint64) {
	if s == nil || len(s.subs[kind]) == 0 {
		return
	}
	s.deliver(at, core, kind, arg1, arg2)
}

// On reports whether anyone subscribed to kind, for the rare site whose
// arguments cost more than a field read to compute.
func (s *Stream) On(kind Kind) bool {
	if s == nil {
		return false
	}
	return len(s.subs[kind]) != 0
}

// deliver is Emit's slow path, kept out of line so the guard inlines into
// every site.
//
//go:noinline
func (s *Stream) deliver(at sim.Time, core int, kind Kind, arg1, arg2 uint64) {
	e := Event{At: at, Core: int32(core), Kind: kind, Arg1: arg1, Arg2: arg2}
	for _, fn := range s.subs[kind] {
		fn(e)
	}
}

// Subscribe appends fn to the subscribers of each given kind. Wiring an
// observer to a nil stream is a bug, not a quiet run: it panics.
func (s *Stream) Subscribe(fn func(Event), kinds ...Kind) {
	if s == nil {
		panic("trace: Subscribe on a nil stream")
	}
	for _, k := range kinds {
		s.subs[k] = append(s.subs[k], fn)
	}
}

// SetRing makes b the stream's ring: the first subscriber, ahead of any
// already present, of the protocol kinds up to KindDirReclaim — and of those
// only, so the checkers' kinds never displace protocol events. A stream has
// at most one ring; a nil b is a no-op.
func (s *Stream) SetRing(b *Buffer) {
	if s == nil {
		panic("trace: SetRing on a nil stream")
	}
	if b == nil {
		return
	}
	if s.ring != nil {
		panic("trace: stream already has a ring")
	}
	s.ring = b
	for k := range s.subs[:ringKinds] {
		s.subs[k] = append([]func(Event){b.add}, s.subs[k]...)
	}
}

// Ring returns the stream's ring (nil when none is installed or the stream
// is nil; Buffer methods accept nil receivers).
func (s *Stream) Ring() *Buffer {
	if s == nil {
		return nil
	}
	return s.ring
}

// Buffer is a bounded event ring. When full, the oldest events are
// overwritten and Dropped counts them — a trace never stops a long run.
type Buffer struct {
	ring    []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewBuffer creates a ring holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Buffer{ring: make([]Event, 0, capacity)}
}

func (b *Buffer) add(e Event) {
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
		return
	}
	b.ring[b.next] = e
	b.next = (b.next + 1) % cap(b.ring)
	b.wrapped = true
	b.dropped++
}

// Dropped reports how many events were overwritten.
func (b *Buffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// Events returns the retained events in emission order, oldest first.
//
// Ordering contract: emission order is the simulator's execution order,
// which is monotonic in At per core but NOT globally — a core running ahead
// of its peers between sync points may emit a later timestamp before a peer
// emits an earlier one. After wrap-around (Dropped() > 0) the window starts
// at the oldest retained event; the order within the window is unchanged.
// Consumers that need global time order must sort by At themselves (the
// perfetto exporter does); consumers that need completeness must check
// Dropped — a wrapped buffer has lost the run's beginning, so cross-event
// pairings (e.g. a mail send whose receive was overwritten) may dangle.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	if !b.wrapped {
		out := make([]Event, len(b.ring))
		copy(out, b.ring)
		return out
	}
	out := make([]Event, 0, cap(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Len reports the number of retained events.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.ring)
}

// Summary aggregates event counts by kind and by core.
type Summary struct {
	ByKind map[Kind]int
	ByCore map[int32]int
	Total  int
	First  sim.Time
	Last   sim.Time
	// Dropped is the number of events lost to ring wrap-around before the
	// summarized window (zero when summarizing a plain event slice).
	Dropped uint64
}

// Summarize builds a Summary over events.
func Summarize(events []Event) Summary {
	s := Summary{ByKind: map[Kind]int{}, ByCore: map[int32]int{}}
	for i, e := range events {
		s.ByKind[e.Kind]++
		s.ByCore[e.Core]++
		s.Total++
		if i == 0 || e.At < s.First {
			s.First = e.At
		}
		if e.At > s.Last {
			s.Last = e.At
		}
	}
	return s
}

// Summary summarizes the buffer's retained events, carrying the drop count
// so a wrapped window is recognizable. Nil-safe.
func (b *Buffer) Summary() Summary {
	if b == nil {
		return Summary{ByKind: map[Kind]int{}, ByCore: map[int32]int{}}
	}
	s := Summarize(b.Events())
	s.Dropped = b.Dropped()
	return s
}

// WriteSummary formats a Summary, ending with the ring's drop count when
// events were lost to wrap-around.
func WriteSummary(w io.Writer, s Summary) {
	fmt.Fprintf(w, "%d events over %.3f us\n", s.Total, (s.Last - s.First).Microseconds())
	kinds := make([]Kind, 0, len(s.ByKind))
	//metalsvm:deterministic — keys are collected, then sorted below
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-14s %6d\n", k, s.ByKind[k])
	}
	cores := make([]int32, 0, len(s.ByCore))
	//metalsvm:deterministic — keys are collected, then sorted below
	for c := range s.ByCore {
		cores = append(cores, c)
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	for _, c := range cores {
		fmt.Fprintf(w, "  core %-2d        %6d\n", c, s.ByCore[c])
	}
	if s.Dropped > 0 {
		fmt.Fprintf(w, "  (%d older events dropped from the ring)\n", s.Dropped)
	}
}

// Filter returns the events matching every given predicate.
func Filter(events []Event, preds ...func(Event) bool) []Event {
	var out []Event
outer:
	for _, e := range events {
		for _, p := range preds {
			if !p(e) {
				continue outer
			}
		}
		out = append(out, e)
	}
	return out
}

// OnCore filters by core id.
func OnCore(core int) func(Event) bool {
	return func(e Event) bool { return e.Core == int32(core) }
}

// OfKind filters by kind.
func OfKind(kind Kind) func(Event) bool {
	return func(e Event) bool { return e.Kind == kind }
}

// Between filters by time range [lo, hi).
func Between(lo, hi sim.Time) func(Event) bool {
	return func(e Event) bool { return e.At >= lo && e.At < hi }
}
