package svm

import (
	"testing"

	"metalsvm/internal/pgtable"
)

func TestFreeRecyclesFrames(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 30})
	freeBefore := -1
	freeAfter := -1
	mains := map[int]func(*Handle){}
	for _, id := range []int{0, 30} {
		mains[id] = func(h *Handle) {
			base := h.Alloc(8 * pgtable.PageSize)
			// Materialize every page.
			for p := uint32(0); p < 8; p++ {
				h.Kernel().Core().Store64(base+p*pgtable.PageSize, uint64(p))
			}
			h.Barrier()
			if h.Kernel().Index() == 0 {
				freeBefore = h.sys.alloc.FreeFrames()
			}
			h.Free(base)
			if h.Kernel().Index() == 0 {
				freeAfter = h.sys.alloc.FreeFrames()
			}
		}
	}
	r.run(t, mains)
	if freeAfter != freeBefore+8 {
		t.Fatalf("free frames %d -> %d, want +8", freeBefore, freeAfter)
	}
	if liveRegions(r.sys) != 0 {
		t.Fatalf("live regions = %d", liveRegions(r.sys))
	}
}

func TestUseAfterFreeTraps(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 30})
	panicked := false
	mains := map[int]func(*Handle){}
	for _, id := range []int{0, 30} {
		id := id
		mains[id] = func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Core().Store64(base, 1)
			h.Barrier()
			h.Free(base)
			if id == 0 {
				defer func() {
					if recover() != nil {
						panicked = true
					}
					h.Kernel().Barrier()
				}()
				h.Kernel().Core().Load64(base) // must trap
				t.Error("use after free did not trap")
			} else {
				h.Kernel().Barrier()
			}
		}
	}
	r.run(t, mains)
	if !panicked {
		t.Fatal("no trap on use after free")
	}
}

func TestAllocAfterFreeReusesPhysicalFrames(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 1})
	var firstFrame, secondFrame uint32
	mains := map[int]func(*Handle){}
	for _, id := range []int{0, 1} {
		id := id
		mains[id] = func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Core().Store64(base, 7)
			e, _ := h.Kernel().Core().Table.Lookup(base)
			if id == 0 {
				firstFrame = e.PFN
			}
			h.Barrier()
			h.Free(base)
			base2 := h.Alloc(pgtable.PageSize)
			// The fresh region must read zero (scrubbed frame), not 7.
			if v := h.Kernel().Core().Load64(base2); v != 0 {
				t.Errorf("core %d: recycled frame leaked value %d", id, v)
			}
			e2, _ := h.Kernel().Core().Table.Lookup(base2)
			if id == 0 {
				secondFrame = e2.PFN
			}
			if base2 == base {
				t.Error("virtual space recycled (cursor must be monotonic)")
			}
			h.Barrier()
		}
	}
	r.run(t, mains)
	if firstFrame != secondFrame {
		t.Fatalf("physical frame not recycled: %d then %d", firstFrame, secondFrame)
	}
}

func TestFreeValidation(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 1})
	panicked := false
	mains := map[int]func(*Handle){}
	for _, id := range []int{0, 1} {
		id := id
		mains[id] = func(h *Handle) {
			base := h.Alloc(2 * pgtable.PageSize)
			h.Barrier()
			if id == 0 {
				defer func() {
					if recover() != nil {
						panicked = true
					}
					h.Kernel().Barrier()
				}()
				h.Free(base + pgtable.PageSize) // not an allocation base
			} else {
				h.Kernel().Barrier()
			}
		}
	}
	r.run(t, mains)
	if !panicked {
		t.Fatal("Free of a non-base address accepted")
	}
}

// liveRegions counts s's live (not freed) collective allocations.
func liveRegions(s *System) int {
	n := 0
	for _, r := range s.allocs {
		if !r.freed {
			n++
		}
	}
	return n
}
