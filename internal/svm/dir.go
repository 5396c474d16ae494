package svm

import "metalsvm/internal/trace"

// OwnerDirectory abstracts how the SVM system tracks page ownership and
// first-touch placement. The default implementation (legacyDirectory) is the
// paper's design: a single-copy owner vector in uncached off-die memory plus
// the MPB-resident scratchpad frame directory, exactly as described in
// Section 6. The replicated implementation (internal/svm/repldir) keeps the
// same page-granular state on a quorum of manager cores instead, so the
// directory survives core crashes.
//
// All Handle-taking methods run on the handle's kernel goroutine and may
// charge simulated time (memory accesses, mail round trips). PeekOwner is a
// host-side diagnostic read and must charge nothing.
type OwnerDirectory interface {
	// FirstTouch resolves the page's frame, allocating (and zeroing) one
	// near the calling core if nobody has yet. It reports the frame and
	// whether this core performed the allocation (and, under the strong
	// model, therefore owns the page). The caller maps the page.
	FirstTouch(h *Handle, idx uint32) (frame uint32, allocated bool)

	// Owner returns the core currently recorded as the page's owner, or -1
	// if the page is unowned.
	Owner(h *Handle, idx uint32) int

	// OwnedLocally reports whether the calling core owns the page. The
	// answer must be authoritative for an alive owner: an owner always
	// knows it is the owner without consulting remote state.
	OwnedLocally(h *Handle, idx uint32) bool

	// YieldPage releases the calling core's claim on a page it is handing
	// over (the owner side of a transfer) and returns the page's epoch,
	// which travels in the ack so the requester's commit is fenced against
	// intervening reclaims. Must not block on remote state: it runs inside
	// the owner's mail handler, where a blocking RPC would deadlock the
	// mailbox slot graph.
	YieldPage(h *Handle, idx uint32) uint32

	// TakeOwnership commits the requester side of an acknowledged handoff:
	// the directory record moves from prev to the calling core, fenced by
	// the epoch the previous owner reported. It reports false when the
	// record has moved on (the transfer was fenced); the requester then
	// re-reads the authoritative owner. The legacy directory commits on the
	// owner side instead and never calls this.
	TakeOwnership(h *Handle, idx uint32, prev int, epoch uint32) bool

	// ReclaimDead asks the directory to revoke the page from a crashed
	// owner and reassign it to the calling core. It reports whether the
	// caller won the page (another racer may get there first, or the
	// "dead" owner may turn out to be alive). Only meaningful for
	// replicated directories; the legacy directory always refuses.
	ReclaimDead(h *Handle, idx uint32, dead int) bool

	// ReclaimOrphan recovers a page orphaned mid-handoff: the recorded owner
	// is alive but keeps answering "not mine" because it yielded to a
	// requester that crashed before committing the transfer. The directory
	// reassigns the page to the caller (epoch-bumped, so a still-in-flight
	// stale commit is fenced) and reports whether the caller won it. Only
	// meaningful for replicated directories; the legacy directory commits
	// transfers owner-side and can never orphan a record.
	ReclaimOrphan(h *Handle, idx uint32, owner int) bool

	// NoteAcquired records that the calling core completed an ownership
	// acquisition of the page (the ack arrived). Replicated clients cache
	// ownership locally off this call; the legacy directory ignores it.
	NoteAcquired(h *Handle, idx uint32)

	// ReleasePage forgets the page's directory record (frame and owner),
	// returning the frame it held or 0 if the page never materialized.
	// The caller returns the frame to the allocator.
	ReleasePage(h *Handle, idx uint32) uint32

	// PeekOwner is the host-side (uncharged) owner read for diagnostics.
	PeekOwner(idx uint32) int

	// Replicated reports whether this is a replicated directory, selecting
	// the crash-tolerant variants of the fault and serve paths.
	Replicated() bool
}

// legacyDirectory is the paper's single-copy directory: owner vector in
// uncached off-die memory, first-touch scratchpad in the MPBs (or off-die
// when configured). Its method bodies are the original fault-path code moved
// verbatim, so runs through it are bit-identical to the pre-interface system.
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
		h.stats.FirstTouches++
		h.emit(trace.KindFirstTouch, uint64(idx), uint64(sf))
	} else {
		h.stats.MapExisting++
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

func (d *legacyDirectory) OwnedLocally(h *Handle, idx uint32) bool {
	return d.Owner(h, idx) == h.k.ID()
}

func (d *legacyDirectory) YieldPage(h *Handle, idx uint32) uint32 { return 0 }

func (d *legacyDirectory) TakeOwnership(h *Handle, idx uint32, prev int, epoch uint32) bool {
	return true
}

func (d *legacyDirectory) ReclaimDead(h *Handle, idx uint32, dead int) bool {
	return false
}

func (d *legacyDirectory) ReclaimOrphan(h *Handle, idx uint32, owner int) bool {
	return false
}

func (d *legacyDirectory) NoteAcquired(h *Handle, idx uint32) {}

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

func (d *legacyDirectory) Replicated() bool { return false }
