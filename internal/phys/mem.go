// Package phys models the SCC's physical storage: the off-die DDR3 memory
// behind four controllers, the per-core 8 KiB on-die message-passing
// buffers (MPBs), and the per-core test-and-set registers.
//
// The package is purely functional — bytes in, bytes out. All timing is
// charged by the chip layer (internal/scc), which knows the mesh geometry
// and the clock domains.
package phys

import (
	"encoding/binary"
	"fmt"
)

// chunkShift sets how many frames a Mem chunk covers: 1<<chunkShift. At
// 4 KiB frames a chunk covers 2 MiB and takes 12 KiB once touched, and the
// directory takes 8 bytes per 2 MiB of address space.
const chunkShift = 9

// chunk is the slots of 1<<chunkShift consecutive frames.
type chunk [1 << chunkShift][]byte

// Mem is the off-die DDR3 memory: a flat physical address space backed by
// lazily allocated frames so that a simulated gigabyte costs host memory
// only where it is touched.
type Mem struct {
	size      uint64
	frameSize uint32
	// dir has one entry per chunk of the address space, nil until a frame
	// of the chunk is first written; a chunk's slot for a frame is nil until
	// the frame is. Only the directory grows with the address space: the
	// paper chip's is 3.3 KB, where one slot per frame would take 1.7 MB. A
	// slot is the frame's slice itself, so an access takes three dependent
	// loads: directory, chunk slot, frame.
	dir []*chunk
}

// NewMem creates a memory of the given size with the given frame size.
// Size must be a multiple of the frame size.
func NewMem(size uint64, frameSize uint32) *Mem {
	if frameSize == 0 || size == 0 || size%uint64(frameSize) != 0 {
		panic(fmt.Sprintf("phys: invalid memory geometry size=%d frame=%d", size, frameSize))
	}
	frames := size / uint64(frameSize)
	return &Mem{
		size:      size,
		frameSize: frameSize,
		dir:       make([]*chunk, (frames+1<<chunkShift-1)>>chunkShift),
	}
}

func (m *Mem) check(paddr uint32, n int) {
	if uint64(paddr)+uint64(n) > m.size {
		panic(fmt.Sprintf("phys: access [%#x,+%d) beyond memory size %#x", paddr, n, m.size))
	}
}

// frame returns frame pfn's bytes, nil while unbacked.
func (m *Mem) frame(pfn uint32) []byte {
	if c := m.dir[pfn>>chunkShift]; c != nil {
		return c[pfn&(1<<chunkShift-1)]
	}
	return nil
}

// Read copies len(dst) bytes starting at paddr into dst. Unbacked frames
// read as zero.
func (m *Mem) Read(paddr uint32, dst []byte) {
	m.check(paddr, len(dst))
	for len(dst) > 0 {
		pfn := paddr / m.frameSize
		off := paddr % m.frameSize
		n := int(m.frameSize - off)
		if n > len(dst) {
			n = len(dst)
		}
		if f := m.frame(pfn); f != nil {
			copy(dst[:n], f[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		paddr += uint32(n)
	}
}

// Write copies src into memory starting at paddr, materializing chunks and
// frames as needed.
func (m *Mem) Write(paddr uint32, src []byte) {
	m.check(paddr, len(src))
	for len(src) > 0 {
		pfn := paddr / m.frameSize
		off := paddr % m.frameSize
		n := int(m.frameSize - off)
		if n > len(src) {
			n = len(src)
		}
		c := m.dir[pfn>>chunkShift]
		if c == nil {
			c = new(chunk)
			m.dir[pfn>>chunkShift] = c
		}
		f := &c[pfn&(1<<chunkShift-1)]
		if *f == nil {
			*f = make([]byte, m.frameSize)
		}
		copy((*f)[off:], src[:n])
		src = src[n:]
		paddr += uint32(n)
	}
}

// Read64 reads a little-endian uint64 at paddr.
func (m *Mem) Read64(paddr uint32) uint64 {
	var b [8]byte
	m.Read(paddr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write64 writes a little-endian uint64 at paddr.
func (m *Mem) Write64(paddr uint32, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(paddr, b[:])
}

// Read32 reads a little-endian uint32 at paddr.
func (m *Mem) Read32(paddr uint32) uint32 {
	var b [4]byte
	m.Read(paddr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a little-endian uint32 at paddr.
func (m *Mem) Write32(paddr uint32, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(paddr, b[:])
}

// ZeroFrame clears one whole frame (used by the first-touch allocator).
func (m *Mem) ZeroFrame(pfn uint32) {
	if uint64(pfn) >= m.size/uint64(m.frameSize) {
		panic(fmt.Sprintf("phys: frame %d out of range", pfn))
	}
	clear(m.frame(pfn))
}
