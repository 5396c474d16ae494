package phys

import "fmt"

// Layout carves the flat physical address space into the SCC's regions: one
// private region per core (cached, exclusively owned, where each kernel
// lives) followed by one shared region (the SVM pool), itself striped over
// the memory controllers in contiguous chunks. It plays the role of the
// sccKit LUT configuration.
type Layout struct {
	frameSize   uint32
	cores       int
	controllers int
	privateSize uint32
	sharedSize  uint32
	// coreMC[i] is the controller serving core i's private region and its
	// "nearest" shared chunk (from mesh.NearestController).
	coreMC []int
}

// NewLayout builds a layout. privateSize and sharedSize must be multiples of
// frameSize; sharedSize must divide evenly over the controllers; coreMC must
// have one entry per core naming a valid controller.
func NewLayout(frameSize, privateSize, sharedSize uint32, controllers int, coreMC []int) (*Layout, error) {
	if frameSize == 0 {
		return nil, fmt.Errorf("phys: zero frame size")
	}
	if privateSize%frameSize != 0 || sharedSize%frameSize != 0 {
		return nil, fmt.Errorf("phys: region sizes %d/%d not frame multiples", privateSize, sharedSize)
	}
	if controllers <= 0 {
		return nil, fmt.Errorf("phys: need at least one controller")
	}
	if sharedSize%uint32(controllers) != 0 {
		return nil, fmt.Errorf("phys: shared size %d not divisible by %d controllers", sharedSize, controllers)
	}
	if len(coreMC) == 0 {
		return nil, fmt.Errorf("phys: empty core-controller table")
	}
	for c, mc := range coreMC {
		if mc < 0 || mc >= controllers {
			return nil, fmt.Errorf("phys: core %d mapped to invalid controller %d", c, mc)
		}
	}
	return &Layout{
		frameSize:   frameSize,
		cores:       len(coreMC),
		controllers: controllers,
		privateSize: privateSize,
		sharedSize:  sharedSize,
		coreMC:      append([]int(nil), coreMC...),
	}, nil
}

// FrameSize returns the frame size in bytes.
func (l *Layout) FrameSize() uint32 { return l.frameSize }

// Controllers returns the memory controller count.
func (l *Layout) Controllers() int { return l.controllers }

// Total returns the size of the whole physical address space.
func (l *Layout) Total() uint64 {
	return uint64(l.privateSize)*uint64(l.cores) + uint64(l.sharedSize)
}

// PrivateBase returns the base physical address of core's private region.
func (l *Layout) PrivateBase(core int) uint32 {
	if core < 0 || core >= l.cores {
		panic(fmt.Sprintf("phys: core %d out of range", core))
	}
	return uint32(core) * l.privateSize
}

// SharedBase returns the base physical address of the shared region.
func (l *Layout) SharedBase() uint32 { return uint32(l.cores) * l.privateSize }

// SharedFrames returns the number of frames in the shared region.
func (l *Layout) SharedFrames() uint32 { return l.sharedSize / l.frameSize }

// SharedFrameAddr returns the physical address of shared frame sf (an index
// relative to the shared region, 0-based).
func (l *Layout) SharedFrameAddr(sf uint32) uint32 {
	if sf >= l.SharedFrames() {
		panic(fmt.Sprintf("phys: shared frame %d out of range", sf))
	}
	return l.SharedBase() + sf*l.frameSize
}

// SharedFrameOf inverts SharedFrameAddr for any address inside the frame.
func (l *Layout) SharedFrameOf(paddr uint32) uint32 {
	if !l.InShared(paddr) {
		panic(fmt.Sprintf("phys: %#x not in shared region", paddr))
	}
	return (paddr - l.SharedBase()) / l.frameSize
}

// InShared reports whether paddr lies in the shared region.
func (l *Layout) InShared(paddr uint32) bool {
	base := l.SharedBase()
	return paddr >= base && uint64(paddr) < uint64(base)+uint64(l.sharedSize)
}

// PrivateOwner returns the core whose private region contains paddr, or -1
// if paddr is in the shared region.
func (l *Layout) PrivateOwner(paddr uint32) int {
	if l.InShared(paddr) {
		return -1
	}
	return int(paddr / l.privateSize)
}

// ControllerOf returns the memory controller serving paddr: the owner's
// affinity controller for private addresses, or the chunk controller for
// shared addresses (shared space is split into equal contiguous chunks, one
// per controller).
func (l *Layout) ControllerOf(paddr uint32) int {
	if owner := l.PrivateOwner(paddr); owner >= 0 {
		return l.coreMC[owner]
	}
	chunk := l.sharedSize / uint32(l.controllers)
	return int((paddr - l.SharedBase()) / chunk)
}

// ControllerOfCore returns core's affinity controller.
func (l *Layout) ControllerOfCore(core int) int {
	if core < 0 || core >= l.cores {
		panic(fmt.Sprintf("phys: core %d out of range", core))
	}
	return l.coreMC[core]
}

// SharedChunkFrames returns the half-open shared-frame index range
// [lo, hi) served by controller mc.
func (l *Layout) SharedChunkFrames(mc int) (lo, hi uint32) {
	if mc < 0 || mc >= l.controllers {
		panic(fmt.Sprintf("phys: controller %d out of range", mc))
	}
	perMC := l.SharedFrames() / uint32(l.controllers)
	return uint32(mc) * perMC, uint32(mc+1) * perMC
}

// FrameAllocator hands out shared frames with controller affinity: requests
// prefer the caller's nearest controller and spill over to the others in a
// deterministic order when a chunk is exhausted.
type FrameAllocator struct {
	layout *Layout
	free   [][]uint32 // per controller, LIFO of shared frame indices
}

// NewFrameAllocatorRange builds an allocator over the shared-frame index
// range [rangeLo, rangeHi) — the mechanism behind coherency domains, which
// partition the shared region so independent SVM systems can coexist on
// one chip. Shared frame 0 is never handed out, whatever the range: the
// scratchpad directory uses frame value 0 to mean "unallocated" (a 16-bit
// representation per page, as in the paper), so it must not be a valid
// allocation.
func NewFrameAllocatorRange(l *Layout, rangeLo, rangeHi uint32) *FrameAllocator {
	if rangeLo > rangeHi || rangeHi > l.SharedFrames() {
		panic(fmt.Sprintf("phys: invalid frame range [%d,%d)", rangeLo, rangeHi))
	}
	a := &FrameAllocator{layout: l, free: make([][]uint32, l.Controllers())}
	for mc := 0; mc < l.Controllers(); mc++ {
		lo, hi := l.SharedChunkFrames(mc)
		if lo == 0 {
			lo = 1 // reserve frame 0 as the "unallocated" sentinel
		}
		if lo < rangeLo {
			lo = rangeLo
		}
		if hi > rangeHi {
			hi = rangeHi
		}
		if lo >= hi {
			continue
		}
		list := make([]uint32, 0, hi-lo)
		// Push in reverse so allocation order is ascending (LIFO pop).
		for f := hi; f > lo; f-- {
			list = append(list, f-1)
		}
		a.free[mc] = list
	}
	return a
}

// Alloc returns a shared frame index, preferring controller mc. The boolean
// is false only when the entire shared region is exhausted.
func (a *FrameAllocator) Alloc(mc int) (uint32, bool) {
	n := len(a.free)
	for i := 0; i < n; i++ {
		c := (mc + i) % n
		if list := a.free[c]; len(list) > 0 {
			f := list[len(list)-1]
			a.free[c] = list[:len(list)-1]
			return f, true
		}
	}
	return 0, false
}

// Free returns a frame to its home controller's pool.
func (a *FrameAllocator) Free(sf uint32) {
	if sf == 0 || sf >= a.layout.SharedFrames() {
		panic(fmt.Sprintf("phys: freeing invalid shared frame %d", sf))
	}
	mc := a.layout.ControllerOf(a.layout.SharedFrameAddr(sf))
	a.free[mc] = append(a.free[mc], sf)
}

// FreeFrames reports the number of currently free frames (diagnostics).
func (a *FrameAllocator) FreeFrames() int {
	n := 0
	for _, l := range a.free {
		n += len(l)
	}
	return n
}
