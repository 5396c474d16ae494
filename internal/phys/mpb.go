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

// MPB is the collection of per-core on-die message-passing buffers. Every
// core can read and write every buffer; the chip layer charges mesh latency
// for remote accesses.
type MPB struct {
	perCore int
	data    [][]byte
}

// NewMPB allocates cores buffers of bytesPerCore each.
func NewMPB(cores, bytesPerCore int) *MPB {
	if cores <= 0 || bytesPerCore <= 0 {
		panic(fmt.Sprintf("phys: invalid MPB geometry cores=%d size=%d", cores, bytesPerCore))
	}
	b := &MPB{perCore: bytesPerCore, data: make([][]byte, cores)}
	for i := range b.data {
		b.data[i] = make([]byte, bytesPerCore)
	}
	return b
}

func (b *MPB) slice(core, off, n int) []byte {
	if core < 0 || core >= len(b.data) {
		panic(fmt.Sprintf("phys: MPB core %d out of range", core))
	}
	if off < 0 || n < 0 || off+n > b.perCore {
		panic(fmt.Sprintf("phys: MPB access [%d,+%d) beyond %d bytes", off, n, b.perCore))
	}
	return b.data[core][off : off+n]
}

// Read copies len(dst) bytes from core's buffer at off.
func (b *MPB) Read(core, off int, dst []byte) {
	copy(dst, b.slice(core, off, len(dst)))
}

// Write copies src into core's buffer at off.
func (b *MPB) Write(core, off int, src []byte) {
	copy(b.slice(core, off, len(src)), src)
}

// Byte returns the byte at off in core's buffer.
func (b *MPB) Byte(core, off int) byte {
	return b.slice(core, off, 1)[0]
}

// Read16 reads a little-endian uint16 at off in core's buffer.
func (b *MPB) Read16(core, off int) uint16 {
	return binary.LittleEndian.Uint16(b.slice(core, off, 2))
}

// Write16 writes a little-endian uint16 at off in core's buffer.
func (b *MPB) Write16(core, off int, v uint16) {
	binary.LittleEndian.PutUint16(b.slice(core, off, 2), v)
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
