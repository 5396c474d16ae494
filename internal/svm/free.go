package svm

import (
	"fmt"

	"metalsvm/internal/trace"
)

// Free is the collective release of a region previously returned by Alloc
// (every member must call it with the region's base, like the other
// collective operations). Physical frames return to the allocator with
// their controller affinity; virtual address space is not recycled — the
// cursor is monotonic, which keeps collective allocation matching trivial
// and mirrors how short-lived bare-metal workloads actually behave.
//
// After the call, any access to the region faults as "unallocated" — a
// use-after-free is caught at its first touch rather than corrupting a
// recycled frame.
func (h *Handle) Free(base uint32) {
	s := h.sys
	r := s.findRegion(base)
	if r == nil {
		h.emit(trace.KindBadFree, uint64(base), 0)
		panic(fmt.Sprintf("svm: Free of %#x, which is not a live allocation base", base))
	}
	first := s.pageIndex(base)
	if s.inReadonly(first) {
		h.emit(trace.KindBadFree, uint64(base), 0)
		panic(fmt.Sprintf("svm: Free of read-only region %#x", base))
	}

	// Drop the local view: pending writes are discarded by definition of
	// freeing, but the WCB may also hold bytes of *other* regions, so
	// publish it rather than dropping it.
	h.k.Core().FlushWCB()
	dropped := false
	for i := uint32(0); i < r.pages; i++ {
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
	// Everyone must have unmapped before the frames are recycled, or a
	// straggler could still read a frame that a new allocation reuses.
	h.groupBarrier()

	// One worker returns the frames and scrubs the directory records.
	if h.Rank() == 0 {
		for i := uint32(0); i < r.pages; i++ {
			idx := first + i
			frame := s.dir.ReleasePage(h, idx)
			if frame == 0 {
				continue // never materialized
			}
			s.alloc.Free(frame)
		}
		r.freed = true
		h.emit(trace.KindRegionFree, uint64(r.base), uint64(r.pages))
	}
	h.groupBarrier()
}
