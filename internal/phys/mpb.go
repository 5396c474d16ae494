package phys

import (
	"encoding/binary"
	"fmt"
)

// MPBBytesPerCore is the SCC's on-die message-passing buffer size per core.
const MPBBytesPerCore = 8 * 1024

// CacheLine is the SCC cache line size in bytes; MPB transfers and mailbox
// slots are one line wide.
const CacheLine = 32

// mpbChunkShift sets an MPB chunk's size: 1<<mpbChunkShift bytes, eight
// cache lines.
const mpbChunkShift = 8

// mpbChunk is one chunk of a core's MPB.
type mpbChunk [1 << mpbChunkShift]byte

// MPB is the collection of per-core on-die message-passing buffers. Every
// core can read and write every buffer; the chip layer charges mesh latency
// for remote accesses.
//
// A buffer is a row of line-multiple chunks, each made on its first write:
// an unwritten chunk reads as zeros and takes only its directory slot, so a
// machine's MPBs cost host memory for the lines its run writes (a mailbox
// slot, a scratchpad entry), not 8 KiB a core.
type MPB struct {
	cores, perCore int
	// chunks has row slots for each core in turn, enough to cover perCore
	// bytes; a slot stays nil until a byte of its chunk is written.
	chunks []*mpbChunk
	row    int
}

// NewMPB makes cores buffers of bytesPerCore each.
func NewMPB(cores, bytesPerCore int) *MPB {
	if cores <= 0 || bytesPerCore <= 0 {
		panic(fmt.Sprintf("phys: invalid MPB geometry cores=%d size=%d", cores, bytesPerCore))
	}
	row := (bytesPerCore + len(mpbChunk{}) - 1) >> mpbChunkShift
	return &MPB{cores: cores, perCore: bytesPerCore, row: row, chunks: make([]*mpbChunk, cores*row)}
}

// at checks [off, off+n) of core's buffer and returns the directory slot of
// the chunk holding off and off's place in it.
func (b *MPB) at(core, off, n int) (slot, in int) {
	if uint(core) >= uint(b.cores) || uint(off) > uint(b.perCore) || uint(n) > uint(b.perCore-off) {
		panic(mpbRangeError{b, core, off, n})
	}
	return core*b.row + off>>mpbChunkShift, off & (len(mpbChunk{}) - 1)
}

// mpbRangeError is the panic of an access outside the MPBs; a value, not a
// formatted string, so that at stays small enough to inline.
type mpbRangeError struct {
	b              *MPB
	core, off, len int
}

func (e mpbRangeError) Error() string {
	if e.core < 0 || e.core >= e.b.cores {
		return fmt.Sprintf("phys: MPB core %d out of range", e.core)
	}
	return fmt.Sprintf("phys: MPB access [%d,+%d) beyond %d bytes", e.off, e.len, e.b.perCore)
}

// Read copies len(dst) bytes from core's buffer at off.
func (b *MPB) Read(core, off int, dst []byte) {
	slot, in := b.at(core, off, len(dst))
	if in+len(dst) <= len(mpbChunk{}) {
		if c := b.chunks[slot]; c != nil {
			copy(dst, c[in:])
		} else {
			clear(dst)
		}
		return
	}
	// Split at chunk edges: each piece takes the path above.
	for len(dst) > 0 {
		n := min(len(dst), len(mpbChunk{})-in)
		b.Read(core, off, dst[:n])
		dst, off, in = dst[n:], off+n, 0
	}
}

// Write copies src into core's buffer at off, making chunks as needed.
func (b *MPB) Write(core, off int, src []byte) {
	slot, in := b.at(core, off, len(src))
	if in+len(src) <= len(mpbChunk{}) {
		c := b.chunks[slot]
		if c == nil {
			c = new(mpbChunk)
			b.chunks[slot] = c
		}
		copy(c[in:], src)
		return
	}
	// Split at chunk edges: each piece takes the path above.
	for len(src) > 0 {
		n := min(len(src), len(mpbChunk{})-in)
		b.Write(core, off, src[:n])
		src, off, in = src[n:], off+n, 0
	}
}

// Byte returns the byte at off in core's buffer.
func (b *MPB) Byte(core, off int) byte {
	slot, in := b.at(core, off, 1)
	if c := b.chunks[slot]; c != nil {
		return c[in]
	}
	return 0
}

// Read16 reads a little-endian uint16 at off in core's buffer.
func (b *MPB) Read16(core, off int) uint16 {
	var w [2]byte
	b.Read(core, off, w[:])
	return binary.LittleEndian.Uint16(w[:])
}

// Write16 writes a little-endian uint16 at off in core's buffer.
func (b *MPB) Write16(core, off int, v uint16) {
	var w [2]byte
	binary.LittleEndian.PutUint16(w[:], v)
	b.Write(core, off, w[:])
}

// TAS models the SCC's per-core test-and-set registers, the chip's only
// atomic primitive. TestAndSet returns whether the lock was acquired;
// hardware semantics are "read returns the old value and sets the bit".
type TAS struct {
	locked []bool
}

// NewTAS creates n registers, all clear.
func NewTAS(n int) *TAS { return &TAS{locked: make([]bool, n)} }

// Count returns the number of registers.
func (t *TAS) Count() int { return len(t.locked) }

func (t *TAS) check(i int) {
	if i < 0 || i >= len(t.locked) {
		panic(fmt.Sprintf("phys: T&S register %d out of range", i))
	}
}

// TestAndSet atomically sets register i, reporting true when it was clear
// (the caller acquired it).
func (t *TAS) TestAndSet(i int) bool {
	t.check(i)
	was := t.locked[i]
	t.locked[i] = true
	return !was
}

// Clear releases register i.
func (t *TAS) Clear(i int) {
	t.check(i)
	t.locked[i] = false
}

// IsSet reports the register state without modifying it (diagnostics).
func (t *TAS) IsSet(i int) bool {
	t.check(i)
	return t.locked[i]
}
