package svm

import (
	"math"

	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// OwnerDirectory is the strategy behind the strong model's one ownership
// protocol. The fault path (acquireOwnership) and the serve path
// (handleOwnerReq) are the same state machine for every directory: read the
// owner, mail it one request, wait for one ack or retry. What differs is
// where a transfer commits. The default implementation (legacyDirectory) is
// the paper's design from Section 6: a single-copy owner vector in uncached
// off-die memory plus the MPB-resident scratchpad frame directory, and the
// owner commits the transfer when it yields (YieldPage writes the vector).
// The replicated implementation (internal/svm/repldir) keeps the same
// page-granular state on a quorum of manager cores so the directory
// survives core crashes; there the owner only drops its claim and the
// requester commits after the ack (TakeOwnership), fenced by the page's
// epoch.
//
// All Handle-taking methods run on the handle's kernel goroutine and may
// charge simulated time (memory accesses, mail round trips). PeekOwner is a
// host-side diagnostic read and must charge nothing.
type OwnerDirectory interface {
	// FirstTouch resolves the page's frame, allocating (and zeroing) one
	// near the calling core if nobody has yet. It reports the frame and
	// whether this core performed the allocation (and, under the strong
	// model, therefore owns the page). The caller maps the page and counts
	// the placement.
	FirstTouch(h *Handle, idx uint32) (frame uint32, allocated bool)

	// Owner returns the core currently recorded as the page's owner, or -1
	// if the page is unowned. It is the requester's authoritative read; an
	// answer naming the caller is the caller's claim on the page.
	Owner(h *Handle, idx uint32) int

	// LocalOwner is the owner side's view of the page when a request
	// arrives: the caller's ID when it holds the page, otherwise the owner
	// to forward the request to, or -1 when the directory can only say
	// "not mine" and the requester must re-read Owner. The answer must be
	// authoritative for an alive owner.
	LocalOwner(h *Handle, idx uint32) int

	// YieldPage hands the calling core's page to requester (the owner side
	// of a transfer) and returns the page's epoch, which travels in the ack
	// so the requester's commit is fenced against intervening reclaims.
	// Must not block on remote state: it runs inside the owner's mail
	// handler, where a blocking RPC would deadlock the mailbox slot graph.
	YieldPage(h *Handle, idx uint32, requester int) uint32

	// AckDeadline is the simulated time until which a requester waits for
	// the answer to an ownership request before probing the owner's
	// liveness. It is read right after the request is sent.
	AckDeadline(h *Handle) sim.Time

	// TakeOwnership commits the requester side of an acknowledged handoff
	// from prev, fenced by the epoch prev reported. It reports false when
	// the record has moved on (the transfer was fenced); the requester then
	// re-reads the owner.
	TakeOwnership(h *Handle, idx uint32, prev int, epoch uint32) bool

	// ReclaimDead asks the directory to revoke the page from a crashed
	// owner and reassign it to the calling core. It reports whether the
	// caller won the page (another racer may get there first, or the
	// "dead" owner may turn out to be alive).
	ReclaimDead(h *Handle, idx uint32, dead int) bool

	// ReclaimOrphan recovers a page orphaned mid-handoff: the recorded owner
	// is alive but keeps answering "not mine" because it yielded to a
	// requester that crashed before committing the transfer. The directory
	// reassigns the page to the caller (epoch-bumped, so a still-in-flight
	// stale commit is fenced) and reports whether the caller won it.
	ReclaimOrphan(h *Handle, idx uint32, owner int) bool

	// ReleasePage forgets the page's directory record (frame and owner),
	// returning the frame it held or 0 if the page never materialized.
	// The caller returns the frame to the allocator.
	ReleasePage(h *Handle, idx uint32) uint32

	// PeekOwner is the host-side (uncharged) owner read for diagnostics.
	PeekOwner(idx uint32) int
}

// legacyDirectory is the paper's single-copy directory: owner vector in
// uncached off-die memory, first-touch scratchpad in the MPBs (or off-die
// when configured). The owner commits each transfer, so an ack needs no
// requester-side commit, a silent owner is waited for without bound (the
// watchdog reports a wedged run), and no record can be orphaned: the
// crash-recovery methods refuse.
type legacyDirectory struct {
	s *System
}

func (d *legacyDirectory) FirstTouch(h *Handle, idx uint32) (frame uint32, allocated bool) {
	s := d.s
	me := h.k.ID()
	layout := s.chip.Layout()

	s.scratchLock(h, idx)
	frame = s.scratchRead(me, idx)
	if frame == 0 {
		mc := layout.ControllerOfCore(me)
		sf, ok := s.alloc.Alloc(mc)
		if !ok {
			s.scratchUnlock(h, idx)
			panic("svm: shared memory exhausted")
		}
		h.k.Core().Cycles(s.cfg.FrameAllocCycles)
		s.chip.ZeroSharedFrame(me, layout.SharedFrameAddr(sf))
		s.scratchWrite(me, idx, sf)
		if s.cfg.Model == Strong {
			s.writeOwner(me, idx, me)
		}
		frame = sf
		allocated = true
		h.emit(trace.KindFirstTouch, uint64(idx), uint64(sf))
	} else {
		// Affinity-on-next-touch: if the page is armed for migration, this
		// touch moves its frame near us (still under the scratchpad lock).
		frame = h.maybeMigrate(idx, frame)
	}
	s.scratchUnlock(h, idx)
	return frame, allocated
}

func (d *legacyDirectory) Owner(h *Handle, idx uint32) int {
	return d.s.readOwner(h.k.ID(), idx)
}

func (d *legacyDirectory) LocalOwner(h *Handle, idx uint32) int { return d.Owner(h, idx) }

func (d *legacyDirectory) YieldPage(h *Handle, idx uint32, requester int) uint32 {
	d.s.writeOwner(h.k.ID(), idx, requester)
	return 0
}

func (d *legacyDirectory) AckDeadline(*Handle) sim.Time { return math.MaxUint64 }

func (d *legacyDirectory) TakeOwnership(*Handle, uint32, int, uint32) bool { return true }

func (d *legacyDirectory) ReclaimDead(*Handle, uint32, int) bool { return false }

func (d *legacyDirectory) ReclaimOrphan(*Handle, uint32, int) bool { return false }

func (d *legacyDirectory) ReleasePage(h *Handle, idx uint32) uint32 {
	s := d.s
	frame := s.scratchReadQuiet(idx)
	if frame == 0 {
		return 0 // never materialized
	}
	s.scratchWrite(h.k.ID(), idx, 0)
	if s.cfg.Model == Strong {
		s.chip.PhysWrite32(h.k.ID(), s.ownerAddr(idx), 0)
	}
	if s.nextTouch.armed > 0 && s.chip.PhysRead32(h.k.ID(), s.migrateAddr(idx)) != 0 {
		s.chip.PhysWrite32(h.k.ID(), s.migrateAddr(idx), 0)
		s.nextTouch.armed--
	}
	return frame
}

func (d *legacyDirectory) PeekOwner(idx uint32) int {
	s := d.s
	return int(s.chip.Mem().Read32(s.ownerAddr(idx))) - 1
}
