package svm

import (
	"fmt"

	"metalsvm/internal/pgtable"
	"metalsvm/internal/trace"
)

// This file implements Affinity-on-Next-Touch, the extension the paper's
// Section 8 names as future work (first proposed by Noordergraaf and van
// der Pas for Sun's WildFire, and prototyped by the MetalSVM authors as a
// Linux kernel extension in their PPAM 2009 paper): a collective call that
// re-arms a region's pages so that the *next* core to touch each page
// migrates its frame to the memory controller nearest to that core.
//
// Mechanics on this platform:
//
//  1. NextTouch(base, bytes) is collective. Every kernel flushes its
//     write-combine buffer, drops its mappings of the region (so any later
//     access faults), and invalidates its MPBT cache lines. One kernel
//     marks each page in the migration table (a byte per shared page in
//     uncached off-die memory). A barrier closes the call — afterwards no
//     core holds a mapping of the region.
//
//  2. The next toucher's page fault finds the scratchpad entry with the
//     migration mark set (checked only while any next-touch region is
//     armed, so the common fault path stays at its Table 1 cost). Under
//     the scratchpad lock it allocates a frame near itself, copies the 4
//     KiB, republishes the scratchpad entry, clears the mark, frees the
//     old frame, and maps. Raters that raced to the same page wait on the
//     lock and then map the already-migrated frame.
type nextTouchState struct {
	// armed counts pages currently marked for migration; the fault path
	// consults the migration table only when it is non-zero.
	armed int
	// tableBase is the paddr of the per-page migration byte array.
	tableBase uint32
}

// migrateAddr returns the migration-table slot for a page.
func (s *System) migrateAddr(idx uint32) uint32 { return s.nextTouch.tableBase + idx*4 }

// NextTouch collectively re-arms [base, base+bytes) for
// affinity-on-next-touch. Every cluster member must call it (like Alloc
// and ProtectReadOnly). Read-only regions cannot migrate (their frames are
// deliberately L2-cached and immutable).
func (h *Handle) NextTouch(base, bytes uint32) {
	s := h.sys
	pages := (bytes + pgtable.PageSize - 1) / pgtable.PageSize
	first := s.pageIndex(base)
	if s.inReadonly(first) {
		panic(fmt.Sprintf("svm: NextTouch on read-only region %#x", base))
	}
	if _, ok := s.dir.(*legacyDirectory); !ok {
		// Migration rewrites the single-copy frame record and owner vector
		// behind the owner protocol's back; a replicated directory has no
		// commit path for that.
		panic("svm: NextTouch is not supported with the replicated directory")
	}

	// Publish pending writes, then drop our view of the region.
	h.k.Core().FlushWCB()
	dropped := false
	for i := uint32(0); i < pages; i++ {
		page := pageVaddr(first + i)
		if _, ok := h.k.Core().Table.Lookup(page); ok {
			h.k.Core().Cycles(s.cfg.MapCycles / 4)
			h.k.Core().Table.Unmap(page)
			dropped = true
		}
	}
	if dropped {
		h.k.Core().CL1INVMB()
	}

	// The first worker marks the pages (one uncached word store each); the
	// closing barrier publishes the marks to everyone.
	if h.Rank() == 0 {
		for i := uint32(0); i < pages; i++ {
			idx := first + i
			if s.scratchReadQuiet(idx) == 0 {
				continue // never materialized: nothing to migrate
			}
			s.chip.PhysWrite32(h.k.ID(), s.migrateAddr(idx), 1)
			s.nextTouch.armed++
		}
	}
	h.groupBarrier()
}

// scratchReadQuiet is a host-side (uncharged) directory peek used only to
// decide whether a page has a frame at all; the fault path never uses it.
func (s *System) scratchReadQuiet(idx uint32) uint32 {
	if s.cfg.ScratchpadOffDie {
		return s.chip.Mem().Read32(s.offDieScratchBase + idx*4)
	}
	home := s.scratchHome(idx)
	off := s.chip.ScratchpadMPBOffset() + int(idx)/s.chip.Cores()*2
	return uint32(s.chip.MPB().Read16(home, off))
}

// maybeMigrate runs inside the first-touch path, under the scratchpad
// lock, when the page has a frame and migration may be armed. It returns
// the frame to map (the new one if this core migrated it).
func (h *Handle) maybeMigrate(idx, frame uint32) uint32 {
	s := h.sys
	if s.nextTouch.armed == 0 {
		return frame
	}
	me := h.k.ID()
	if s.chip.PhysRead32(me, s.migrateAddr(idx)) == 0 {
		return frame
	}
	layout := s.chip.Layout()
	oldAddr := layout.SharedFrameAddr(frame)
	// Already local? Just disarm.
	if layout.ControllerOf(oldAddr) != layout.ControllerOfCore(me) {
		newFrame, ok := s.alloc.Alloc(layout.ControllerOfCore(me))
		if ok {
			newAddr := layout.SharedFrameAddr(newFrame)
			s.copyFrame(h, oldAddr, newAddr)
			s.scratchWrite(me, idx, newFrame)
			s.alloc.Free(frame)
			if s.cfg.Model == Strong {
				s.writeOwner(me, idx, me)
			}
			frame = newFrame
			h.migrations++
			h.emit(trace.KindMigration, uint64(idx), uint64(newFrame))
		}
	}
	s.chip.PhysWrite32(me, s.migrateAddr(idx), 0)
	s.nextTouch.armed--
	return frame
}

// copyFrame moves one 4 KiB frame through the core's uncached path: 128
// line reads plus 128 posted line writes, charged in bulk.
func (s *System) copyFrame(h *Handle, oldAddr, newAddr uint32) {
	chip := s.chip
	me := h.k.ID()
	frame := chip.Layout().FrameSize()
	buf := make([]byte, frame)
	chip.Mem().Read(oldAddr, buf)
	chip.Mem().Write(newAddr, buf)
	h.k.Core().Proc().Advance(chip.FrameCopyLatency(me, oldAddr, newAddr))
}
