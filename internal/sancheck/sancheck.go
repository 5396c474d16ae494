// Package sancheck is a sanitizer suite for the *simulated* machine — the
// MSan/Eraser/lockdep analogs pointed at MetalSVM workloads instead of host
// processes.
//
// The paper's SVM system moves correctness burdens from hardware into
// software: coherence is explicit (flush/invalidate at synchronization
// points), ownership is a protocol, and allocation is collective. That is
// exactly where silent bugs hide — a page read before its first write, a
// stale access after svmfree, a page freed while a straggler still maps it,
// or two cores taking the simulated locks in inconsistent orders. The
// happens-before race checker (internal/racecheck) catches unordered
// conflicting accesses; this package catches the bug classes it cannot:
//
//   - Shadow memory (shadow.go): an MSan-style per-granule init bitmap over
//     the live collective allocations flags reads of never-written words,
//     classifies the fault path's traps (use-after-free, double free, wild
//     access, read-only write), and cross-checks the free protocol's
//     "everyone unmapped before the frames recycle" invariant through the
//     page-table map/unmap events.
//
//   - Lockset (lockset.go): an Eraser-style checker over the simulated SVM
//     locks and test-and-set registers. Unlike the happens-before detector
//     it flags inconsistent locking even on schedules where the accesses
//     happened to serialize, at the cost of needing epoch resets (barriers,
//     ownership transfers) to stay quiet on lock-free-but-ordered phases.
//
//   - Lock order (lockorder.go): a lockdep-style acquisition-order graph.
//     Every acquire while holding other locks adds held→new edges; cycles
//     reported at Finalize are potential deadlocks even when this run
//     completed. Holding any lock across a barrier is flagged too — every
//     member must reach the barrier, so a contender for that lock deadlocks
//     the rendezvous.
//
// The checker is a subscriber of the chip's event stream (Attach), next to
// the trace ring and the race checker: it rebuilds its state from the access,
// map, lock, test-and-set, ownership, barrier and region events every layer
// emits anyway. Subscribers charge no cycles, so a sanitized run is
// bit-identical to a plain one (asserted by sccbench -check).
package sancheck

import (
	"fmt"
	"io"
	"strings"

	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// maxFindings bounds the number of fully recorded findings. Further
// observations only count towards Dynamic.
const maxFindings = 32

// Kind classifies a finding.
type Kind int

const (
	// UninitRead: a granule was read before any core wrote it. The
	// first-touch path zeroes fresh frames, but reading allocator zeros is
	// almost always a missing initialization (MSan's rationale).
	UninitRead Kind = iota
	// UseAfterFree: an access hit a freed region, or a region was freed
	// while some core still mapped one of its pages.
	UseAfterFree
	// DoubleFree: Free of a base that was already freed.
	DoubleFree
	// BadFree: Free of an address that never was an allocation base.
	BadFree
	// ReadOnlyWrite: a store hit a region protected by ProtectReadOnly.
	ReadOnlyWrite
	// WildAccess: an access hit shared address space outside any collective
	// allocation, live or freed.
	WildAccess
	// LocksetRace: a shared, written granule's candidate lockset went
	// empty — no single lock protected every access.
	LocksetRace
	// LockOrderCycle: the acquisition-order graph contains a cycle.
	LockOrderCycle
	// LockAcrossBarrier: a core entered a barrier while holding a lock.
	LockAcrossBarrier

	numKinds
)

var kindNames = [numKinds]string{
	"uninit-read", "use-after-free", "double-free", "bad-free",
	"readonly-write", "wild-access", "lockset-race", "lock-order-cycle",
	"lock-across-barrier",
}

func (k Kind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Finding is one recorded bug observation.
type Finding struct {
	Kind Kind
	// Core is the core whose action exposed the bug.
	Core int
	// Addr is the affected virtual address (granule or page base; zero for
	// lock findings).
	Addr uint32
	// At is the simulated time of the exposing action (zero when the
	// finding is graph-derived at Finalize).
	At sim.Time
	// Detail is the human-readable diagnosis.
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("SANCHECK [%v] core %d at %.3fus: %s",
		f.Kind, f.Core, f.At.Microseconds(), f.Detail)
}

// tokenKind distinguishes the lock namespaces.
type tokenKind uint8

const (
	tokSVM tokenKind = iota // an SVM lock word (space = SVM system index)
	tokTAS                  // a raw test-and-set register
)

// token names one simulated lock. Tokens are comparable and used as map
// keys in the lockset and lock-order state.
type token struct {
	kind  tokenKind
	space int // SVM system index (coherency domain); 0 for TAS
	id    int
}

func (t token) String() string {
	switch t.kind {
	case tokTAS:
		return fmt.Sprintf("tas reg %d", t.id)
	default:
		if t.space != 0 {
			return fmt.Sprintf("svm[%d] lock %d", t.space, t.id)
		}
		return fmt.Sprintf("svm lock %d", t.id)
	}
}

// less orders tokens deterministically (reports never depend on map order).
func (t token) less(o token) bool {
	if t.kind != o.kind {
		return t.kind < o.kind
	}
	if t.space != o.space {
		return t.space < o.space
	}
	return t.id < o.id
}

func fmtSet(set []token) string {
	if len(set) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Checker is one chip's sanitizer. It is not goroutine-safe, which is fine:
// the simulator runs exactly one process at a time.
type Checker struct {
	n    int    // cores
	base uint32 // lowest checked virtual address (the shared region)

	// held tracks the per-core set of currently held locks (SVM lock words
	// and TAS registers), shared by the lockset and lock-order analyses.
	held [][]token
	// epoch counts barriers per core; an access at a strictly greater
	// epoch than a granule's last accessor is ordered after it.
	epoch []uint32
	// ownEpoch counts strong-model ownership acquisitions per shared page
	// index; a transfer orders the previous owner's accesses, like a
	// barrier does, but per page.
	ownEpoch map[uint32]uint32

	shadow *shadowState
	ls     *locksetState
	lo     *lockOrderState

	findings  []Finding
	dynamic   uint64
	counts    [numKinds]uint64
	finalized bool

	space []int // core -> index of its SVM system (see Attach)
}

// NewChecker creates a sanitizer for an n-core chip whose checked (shared)
// region starts at base.
func NewChecker(n int, base uint32) *Checker {
	return &Checker{
		n:        n,
		base:     base,
		held:     make([][]token, n),
		epoch:    make([]uint32, n),
		ownEpoch: make(map[uint32]uint32),
		shadow:   newShadowState(),
		ls:       newLocksetState(),
		lo:       newLockOrderState(),
	}
}

// Findings returns the recorded findings (running Finalize first so graph
// analyses are included), in detection order.
func (k *Checker) Findings() []Finding {
	k.Finalize()
	return k.findings
}

// Dynamic returns the total number of bug observations, including ones
// suppressed after maxFindings or after a site's first report.
func (k *Checker) Dynamic() uint64 {
	k.Finalize()
	return k.dynamic
}

// Clean reports whether no finding of any class was observed.
func (k *Checker) Clean() bool {
	k.Finalize()
	return k.dynamic == 0
}

// CountOf returns the number of observations of one kind.
func (k *Checker) CountOf(kind Kind) uint64 {
	k.Finalize()
	if kind < 0 || kind >= numKinds {
		return 0
	}
	return k.counts[kind]
}

// Finalize runs the end-of-run analyses (lock-order cycle detection). It is
// idempotent, cheap to call early, and invoked automatically by Findings,
// Dynamic, Clean and Report; core.Observation.Finish also calls it.
func (k *Checker) Finalize() {
	if k.finalized {
		return
	}
	k.finalized = true
	k.lo.finalize(k)
}

// Report writes a human-readable summary.
func (k *Checker) Report(w io.Writer) {
	k.Finalize()
	if k.dynamic == 0 {
		fmt.Fprintf(w, "sancheck: no findings\n")
		return
	}
	fmt.Fprintf(w, "sancheck: %d observation(s), %d reported:\n", k.dynamic, len(k.findings))
	for _, f := range k.findings {
		fmt.Fprintf(w, "%v\n", f)
	}
}

// report books one finding, bounded by maxFindings.
func (k *Checker) report(f Finding) {
	k.dynamic++
	k.counts[f.Kind]++
	if len(k.findings) < maxFindings {
		k.findings = append(k.findings, f)
	}
}

// pageOf maps a checked address to its shared page index.
func (k *Checker) pageOf(vaddr uint32) uint32 { return (vaddr - k.base) >> pageShift }

const (
	granuleShift = 2 // 4-byte tracking granules, like racecheck
	pageShift    = 12
)

// --- Event intake -----------------------------------------------------------

// Attach subscribes the checker to a chip's event stream. space maps each
// core to the index of the SVM system it is a member of, so lock tokens of
// different coherency domains never alias.
func (k *Checker) Attach(s *trace.Stream, space []int) {
	k.space = space
	s.Subscribe(k.onEvent, trace.KindLoad, trace.KindStore, trace.KindMap, trace.KindUnmap,
		trace.KindTASAcquire, trace.KindTASRelease, trace.KindLockAcquire, trace.KindLockRelease,
		trace.KindOwnerAcquire, trace.KindBarrierDone,
		trace.KindRegionAlloc, trace.KindRegionFree, trace.KindRegionProtect,
		trace.KindBadFree, trace.KindInvalidAccess, trace.KindReadOnlyWrite)
}

// onEvent feeds one event to the analyses that use its kind. Accesses and
// page-table changes below the checked base (private memory) are ignored.
func (k *Checker) onEvent(e trace.Event) {
	core, a, b, at := int(e.Core), uint32(e.Arg1), uint32(e.Arg2), e.At
	switch e.Kind {
	case trace.KindLoad, trace.KindStore:
		if a < k.base || b == 0 {
			return
		}
		write := e.Kind == trace.KindStore
		k.shadow.onAccess(k, core, a, int(b), write, at)
		k.ls.onAccess(k, core, a, int(b), write, at)
	case trace.KindMap, trace.KindUnmap:
		if a >= k.base {
			k.shadow.onMap(core, a, e.Kind == trace.KindMap)
		}
	case trace.KindTASAcquire:
		k.acquireToken(core, token{kind: tokTAS, id: int(a)}, at)
	case trace.KindTASRelease:
		k.releaseToken(core, token{kind: tokTAS, id: int(a)})
	case trace.KindLockAcquire:
		k.acquireToken(core, token{kind: tokSVM, space: k.space[core], id: int(a)}, at)
	case trace.KindLockRelease:
		k.releaseToken(core, token{kind: tokSVM, space: k.space[core], id: int(a)})
	case trace.KindOwnerAcquire:
		// A strong-model transfer of shared page index a orders the
		// previous owner's accesses before the new owner's.
		k.ownEpoch[a]++
	case trace.KindBarrierDone:
		// The core's epoch advances, and holding any lock here is a
		// potential deadlock (every member must arrive).
		if core >= 0 && core < k.n {
			k.epoch[core]++
			k.lo.onBarrier(k, core, at)
		}
	case trace.KindRegionAlloc:
		k.shadow.onAlloc(a, b)
	case trace.KindRegionFree:
		k.shadow.onFree(k, core, a, b, at)
	case trace.KindRegionProtect:
		k.shadow.onProtect(a, b)
	case trace.KindBadFree:
		k.shadow.onBadFree(k, core, a, at)
	case trace.KindInvalidAccess:
		k.shadow.onInvalidAccess(k, core, a, b != 0, at)
	case trace.KindReadOnlyWrite:
		k.report(Finding{Kind: ReadOnlyWrite, Core: core, Addr: a, At: at,
			Detail: fmt.Sprintf("write to read-only region at %#x", a)})
	}
}

func (k *Checker) acquireToken(core int, t token, at sim.Time) {
	if core < 0 || core >= k.n {
		return
	}
	k.lo.onAcquire(k, core, t, at)
	k.held[core] = append(k.held[core], t)
}

func (k *Checker) releaseToken(core int, t token) {
	if core < 0 || core >= k.n {
		return
	}
	h := k.held[core]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i] == t {
			k.held[core] = append(h[:i], h[i+1:]...)
			return
		}
	}
}
