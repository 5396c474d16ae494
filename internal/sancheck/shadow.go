package sancheck

import (
	"fmt"

	"metalsvm/internal/sim"
)

// This file is the MSan-style shadow-memory checker. Every live collective
// allocation carries an init bitmap with one bit per 4-byte granule; a read
// whose granule bit is clear is a read of data no core ever wrote. The
// first-touch path zeroes fresh frames, so such a read returns zero
// deterministically — which is exactly why it usually hides a missing
// initialization rather than crashing. Sub-word stores mark the whole
// granule initialized (false negatives only, matching racecheck's
// coarsening rationale).
//
// The same state classifies the svm fault path's traps — an invalid access
// lands in a freed region (use-after-free) or in no region ever allocated
// (wild access); a bad Free hits a freed base (double free) or garbage
// (bad free) — and audits the free protocol: when a region is freed, the
// page-table map/unmap events must show that no core still maps any of its
// pages, or a straggler could read a frame a later allocation reuses.

// memSpan is a half-open virtual address range.
type memSpan struct{ base, limit uint32 }

func (s memSpan) contains(addr uint32) bool { return addr >= s.base && addr < s.limit }

// shadowRegion is the shadow of one live collective allocation.
type shadowRegion struct {
	memSpan
	ro bool
	// init holds one bit per granule, indexed from base.
	init []uint64
}

func (r *shadowRegion) granule(addr uint32) (word, bit uint32) {
	g := (addr - r.base) >> granuleShift
	return g >> 6, g & 63
}

type shadowState struct {
	regions []*shadowRegion
	freed   []memSpan
	// mapped tracks which cores currently map which shared pages, fed by
	// the page-table map/unmap events: key = page base | core (pages are 4 KiB aligned,
	// so the low bits are free for the core id).
	mapped map[uint64]bool
	// reported dedups per-address findings.
	reported map[uint32]bool
}

func newShadowState() *shadowState {
	return &shadowState{
		mapped:   make(map[uint64]bool),
		reported: make(map[uint32]bool),
	}
}

// find returns the live region containing addr.
func (s *shadowState) find(addr uint32) *shadowRegion {
	for _, r := range s.regions {
		if r.contains(addr) {
			return r
		}
	}
	return nil
}

func (s *shadowState) inFreed(addr uint32) bool {
	for _, f := range s.freed {
		if f.contains(addr) {
			return true
		}
	}
	return false
}

func (s *shadowState) onAlloc(base, pages uint32) {
	r := &shadowRegion{
		memSpan: memSpan{base: base, limit: base + pages<<pageShift},
	}
	r.init = make([]uint64, (pages<<(pageShift-granuleShift)+63)/64)
	s.regions = append(s.regions, r)
}

func (s *shadowState) onProtect(base, pages uint32) {
	span := memSpan{base: base, limit: base + pages<<pageShift}
	for _, r := range s.regions {
		if r.base < span.limit && span.base < r.limit {
			r.ro = true
		}
	}
}

func (s *shadowState) onFree(k *Checker, core int, base, pages uint32, at sim.Time) {
	span := memSpan{base: base, limit: base + pages<<pageShift}
	// Audit the unmap protocol: by the time the frames are recycled, no
	// core may still hold a mapping of any page in the region.
	for page := span.base; page < span.limit; page += 1 << pageShift {
		for c := 0; c < k.n; c++ {
			if s.mapped[mapKey(c, page)] && !s.reported[page] {
				s.reported[page] = true
				k.report(Finding{Kind: UseAfterFree, Core: core, Addr: page, At: at,
					Detail: fmt.Sprintf("region %#x freed while core %d still maps page %#x", base, c, page)})
			}
		}
	}
	for i, r := range s.regions {
		if r.base == base {
			s.regions = append(s.regions[:i], s.regions[i+1:]...)
			break
		}
	}
	s.freed = append(s.freed, span)
}

func (s *shadowState) onBadFree(k *Checker, core int, base uint32, at sim.Time) {
	if s.inFreed(base) {
		k.report(Finding{Kind: DoubleFree, Core: core, Addr: base, At: at,
			Detail: fmt.Sprintf("double free of region %#x", base)})
		return
	}
	k.report(Finding{Kind: BadFree, Core: core, Addr: base, At: at,
		Detail: fmt.Sprintf("free of %#x, which is not an allocation base", base)})
}

func (s *shadowState) onInvalidAccess(k *Checker, core int, vaddr uint32, write bool, at sim.Time) {
	op := "read of"
	if write {
		op = "write to"
	}
	if s.inFreed(vaddr) {
		k.report(Finding{Kind: UseAfterFree, Core: core, Addr: vaddr, At: at,
			Detail: fmt.Sprintf("%s freed region at %#x", op, vaddr)})
		return
	}
	k.report(Finding{Kind: WildAccess, Core: core, Addr: vaddr, At: at,
		Detail: fmt.Sprintf("%s unallocated shared address %#x", op, vaddr)})
}

func mapKey(core int, page uint32) uint64 {
	return uint64(page) | uint64(core)
}

func (s *shadowState) onMap(core int, vaddr uint32, mapped bool) {
	key := mapKey(core, vaddr&^((1<<pageShift)-1))
	if mapped {
		s.mapped[key] = true
	} else {
		delete(s.mapped, key)
	}
}

func (s *shadowState) onAccess(k *Checker, core int, vaddr uint32, size int, write bool, at sim.Time) {
	r := s.find(vaddr)
	if r == nil {
		// Outside every live region. An access event only fires after a
		// successful translation, so this is normally unreachable — the
		// fault path panics first and KindInvalidAccess classifies it. Guard
		// anyway: a protocol bug that leaves a stale mapping behind would
		// surface here instead of being silently ignored.
		g := vaddr &^ ((1 << granuleShift) - 1)
		if !s.reported[g] {
			s.reported[g] = true
			s.onInvalidAccess(k, core, vaddr, write, at)
		}
		return
	}
	first := vaddr >> granuleShift
	last := (vaddr + uint32(size) - 1) >> granuleShift
	for g := first; g <= last; g++ {
		addr := g << granuleShift
		if addr >= r.limit {
			break // access straddles the region's end; the tail faults
		}
		word, bit := r.granule(addr)
		if write {
			r.init[word] |= 1 << bit
			continue
		}
		if r.init[word]&(1<<bit) == 0 {
			if !s.reported[addr] {
				s.reported[addr] = true
				k.report(Finding{Kind: UninitRead, Core: core, Addr: addr, At: at,
					Detail: fmt.Sprintf("read of uninitialized granule %#x (no core ever wrote it)", addr)})
			}
			// Silence repeats: the first report covers the granule.
			r.init[word] |= 1 << bit
		}
	}
}
