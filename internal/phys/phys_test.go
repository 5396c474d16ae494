package phys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMemReadWriteRoundTrip(t *testing.T) {
	m := NewMem(1<<20, 4096)
	data := []byte("hello, scc")
	m.Write(1234, data)
	got := make([]byte, len(data))
	m.Read(1234, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestMemCrossFrameAccess(t *testing.T) {
	m := NewMem(1<<20, 4096)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	// Straddle the frame boundary at 4096.
	m.Write(4096-50, data)
	got := make([]byte, 100)
	m.Read(4096-50, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-frame read mismatch")
	}
	if backedFrames(m) != 2 {
		t.Fatalf("backed frames = %d, want 2", backedFrames(m))
	}
}

func TestMemUnbackedReadsZero(t *testing.T) {
	m := NewMem(1<<20, 4096)
	got := make([]byte, 64)
	got[0] = 0xff
	m.Read(8192, got)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if backedFrames(m) != 0 {
		t.Fatal("read materialized a frame")
	}
}

// TestUntouchedMemIsSmall: an untouched memory the size of the paper chip's
// (48 private regions of 16 MiB and 64 MiB shared) allocates at most 1/256 of
// one 8-byte slot per frame, and its frames, the last one included, read as
// zeros without being materialized.
func TestUntouchedMemIsSmall(t *testing.T) {
	const size, frame = 48*16<<20 + 64<<20, 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMem(size, frame)
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(size/frame*8/256); got > bound {
		t.Fatalf("NewMem allocated %d bytes, want at most %d", got, bound)
	}
	got := make([]byte, 2*frame)
	got[0], got[frame] = 0xff, 0xff
	m.Read(size-2*frame, got)
	if !bytes.Equal(got, make([]byte, 2*frame)) {
		t.Fatal("an untouched frame does not read as zeros")
	}
	if backedFrames(m) != 0 {
		t.Fatal("read materialized a frame")
	}
}

func TestMemWord64(t *testing.T) {
	m := NewMem(1<<20, 4096)
	m.Write64(4000, 0xdeadbeefcafef00d)
	if v := m.Read64(4000); v != 0xdeadbeefcafef00d {
		t.Fatalf("Read64 = %#x", v)
	}
	m.Write32(96, 0x12345678)
	if v := m.Read32(96); v != 0x12345678 {
		t.Fatalf("Read32 = %#x", v)
	}
}

func TestMemOutOfRangePanics(t *testing.T) {
	m := NewMem(1<<20, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	m.Write((1<<20)-4, make([]byte, 8))
}

func TestMemZeroFrame(t *testing.T) {
	m := NewMem(1<<20, 4096)
	m.Write(4096, []byte{1, 2, 3})
	m.ZeroFrame(1)
	got := make([]byte, 3)
	m.Read(4096, got)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("frame not zeroed: %v", got)
	}
}

// Property: reads return exactly the most recently written bytes.
func TestMemLastWriteWinsProperty(t *testing.T) {
	m := NewMem(1<<16, 4096)
	f := func(addr uint16, a, b byte) bool {
		m.Write(uint32(addr), []byte{a})
		m.Write(uint32(addr), []byte{b})
		var got [1]byte
		m.Read(uint32(addr), got[:])
		return got[0] == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMPBReadWrite(t *testing.T) {
	b := NewMPB(48, MPBBytesPerCore)
	if b.cores != 48 || b.perCore != 8192 || len(b.chunks)*len(mpbChunk{}) != 48*8192 {
		t.Fatalf("geometry %d cores x %d in %d chunks", b.cores, b.perCore, len(b.chunks))
	}
	b.Write(30, 100, []byte{9, 8, 7})
	got := make([]byte, 3)
	b.Read(30, 100, got)
	if got[0] != 9 || got[1] != 8 || got[2] != 7 {
		t.Fatalf("read back %v", got)
	}
	// Other cores' buffers are independent.
	b.Read(31, 100, got)
	if got[0] != 0 {
		t.Fatal("MPB buffers aliased across cores")
	}
}

// TestMPBMatchesFlatBuffers: reads and writes at random cores, offsets and
// lengths, many across chunk edges, agree with one flat byte slice per core,
// and every chunk holding a written nonzero byte was made.
func TestMPBMatchesFlatBuffers(t *testing.T) {
	const cores, size = 3, 1000 // the last chunk of each core is partial
	b := NewMPB(cores, size)
	ref := make([][]byte, cores)
	for i := range ref {
		ref[i] = make([]byte, size)
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		core, off := rng.Intn(cores), rng.Intn(size)
		n := rng.Intn(min(size-off, 600) + 1)
		switch rng.Intn(4) {
		case 0:
			src := make([]byte, n)
			rng.Read(src)
			b.Write(core, off, src)
			copy(ref[core][off:], src)
		case 1:
			if off+2 <= size {
				v := uint16(rng.Uint32())
				b.Write16(core, off, v)
				binary.LittleEndian.PutUint16(ref[core][off:], v)
			}
		case 2:
			if off+2 <= size && b.Read16(core, off) != binary.LittleEndian.Uint16(ref[core][off:]) {
				t.Fatalf("op %d: Read16(%d, %d) differs", op, core, off)
			}
			if b.Byte(core, off) != ref[core][off] {
				t.Fatalf("op %d: Byte(%d, %d) differs", op, core, off)
			}
		default:
			got := bytes.Repeat([]byte{0xee}, n)
			b.Read(core, off, got)
			if !bytes.Equal(got, ref[core][off:off+n]) {
				t.Fatalf("op %d: Read(%d, %d, %d bytes) = %x, want %x", op, core, off, n, got, ref[core][off:off+n])
			}
		}
	}
	for core := range ref {
		for i := 0; i < b.row; i++ {
			lo, hi := i*len(mpbChunk{}), min((i+1)*len(mpbChunk{}), size)
			made := b.chunks[core*b.row+i] != nil
			if !made && !bytes.Equal(ref[core][lo:hi], make([]byte, hi-lo)) {
				t.Fatalf("core %d chunk %d holds written bytes but was never made", core, i)
			}
		}
	}
}

// TestUnwrittenMPBIsSmall: the paper chip's 48 MPBs cost their directory
// only, and an unwritten buffer reads as zeros without allocating.
func TestUnwrittenMPBIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewMPB(48, MPBBytesPerCore)
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(48*MPBBytesPerCore/16); got > bound {
		t.Fatalf("NewMPB allocated %d bytes, want at most %d", got, bound)
	}
	var line [CacheLine]byte
	allocs := testing.AllocsPerRun(100, func() {
		line[0], line[CacheLine-1] = 0xff, 0xff
		b.Read(47, MPBBytesPerCore-CacheLine, line[:])
		if line != ([CacheLine]byte{}) || b.Byte(0, 0) != 0 || b.Read16(5, 255) != 0 {
			t.Fatal("an unwritten MPB does not read as zeros")
		}
	})
	if allocs != 0 {
		t.Fatalf("reading an unwritten MPB allocated %v times", allocs)
	}
	for _, c := range b.chunks {
		if c != nil {
			t.Fatal("a read made a chunk")
		}
	}
}

func TestMPBWord16(t *testing.T) {
	b := NewMPB(4, 256)
	b.Write16(2, 10, 0xbeef)
	if v := b.Read16(2, 10); v != 0xbeef {
		t.Fatalf("Read16 = %#x", v)
	}
	b.Write(1, 0, []byte{0x5a})
	if v := b.Byte(1, 0); v != 0x5a {
		t.Fatalf("Byte = %#x", v)
	}
}

func TestMPBBoundsPanics(t *testing.T) {
	b := NewMPB(2, 64)
	defer func() {
		if r := recover(); fmt.Sprint(r) != "phys: MPB access [60,+8) beyond 64 bytes" {
			t.Fatalf("overflow access panicked with %v", r)
		}
	}()
	b.Write(0, 60, make([]byte, 8))
}

func TestTASSemantics(t *testing.T) {
	ts := NewTAS(48)
	if !ts.TestAndSet(5) {
		t.Fatal("first TestAndSet failed to acquire")
	}
	if ts.TestAndSet(5) {
		t.Fatal("second TestAndSet acquired a held lock")
	}
	if !ts.IsSet(5) {
		t.Fatal("register not set")
	}
	ts.Clear(5)
	if !ts.TestAndSet(5) {
		t.Fatal("TestAndSet after Clear failed")
	}
	// Registers are independent.
	if !ts.TestAndSet(6) {
		t.Fatal("unrelated register affected")
	}
}

func testLayout(t *testing.T) *Layout {
	t.Helper()
	coreMC := make([]int, 48)
	for c := range coreMC {
		// Quadrant mapping: tiles x<3 -> west controllers, y<2 -> south.
		tile := c / 2
		x, y := tile%6, tile/6
		mc := 0
		if x >= 3 {
			mc |= 1
		}
		if y >= 2 {
			mc |= 2
		}
		coreMC[c] = mc
	}
	l, err := NewLayout(4096, 1<<20, 16<<20, 4, coreMC)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutGeometry(t *testing.T) {
	l := testLayout(t)
	if l.Total() != 48*(1<<20)+(16<<20) {
		t.Fatalf("total = %d", l.Total())
	}
	if l.PrivateBase(0) != 0 || l.PrivateBase(1) != 1<<20 {
		t.Fatal("private bases wrong")
	}
	if l.SharedBase() != 48<<20 {
		t.Fatalf("shared base = %#x", l.SharedBase())
	}
	if l.SharedFrames() != (16<<20)/4096 {
		t.Fatalf("shared frames = %d", l.SharedFrames())
	}
}

func TestLayoutRegionQueries(t *testing.T) {
	l := testLayout(t)
	if !l.InShared(l.SharedBase()) {
		t.Fatal("shared base not in shared region")
	}
	if l.InShared(l.SharedBase() - 1) {
		t.Fatal("private tail classified as shared")
	}
	if owner := l.PrivateOwner(l.PrivateBase(7) + 100); owner != 7 {
		t.Fatalf("owner = %d, want 7", owner)
	}
	if owner := l.PrivateOwner(l.SharedBase()); owner != -1 {
		t.Fatalf("shared owner = %d, want -1", owner)
	}
}

func TestLayoutControllerMapping(t *testing.T) {
	l := testLayout(t)
	// Core 0 (tile 0, quadrant SW) -> controller 0.
	if mc := l.ControllerOf(l.PrivateBase(0)); mc != 0 {
		t.Fatalf("private MC = %d, want 0", mc)
	}
	// Core 47 (tile 23 at x=5,y=3) -> controller 3.
	if mc := l.ControllerOf(l.PrivateBase(47)); mc != 3 {
		t.Fatalf("private MC = %d, want 3", mc)
	}
	// Shared chunks: frame ranges must partition the shared region.
	covered := uint32(0)
	for mc := 0; mc < 4; mc++ {
		lo, hi := l.SharedChunkFrames(mc)
		covered += hi - lo
		if a := l.ControllerOf(l.SharedFrameAddr(lo)); a != mc {
			t.Fatalf("chunk %d frame %d maps to controller %d", mc, lo, a)
		}
	}
	if covered != l.SharedFrames() {
		t.Fatalf("chunks cover %d frames, want %d", covered, l.SharedFrames())
	}
}

func TestLayoutSharedFrameRoundTrip(t *testing.T) {
	l := testLayout(t)
	for _, sf := range []uint32{0, 1, 100, l.SharedFrames() - 1} {
		if got := l.SharedFrameOf(l.SharedFrameAddr(sf)); got != sf {
			t.Fatalf("frame %d round-tripped to %d", sf, got)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, 1<<20, 16<<20, 4, []int{0}); err == nil {
		t.Error("zero frame size accepted")
	}
	if _, err := NewLayout(4096, 1000, 16<<20, 4, []int{0}); err == nil {
		t.Error("non-multiple private size accepted")
	}
	if _, err := NewLayout(4096, 1<<20, 16<<20, 4, []int{7}); err == nil {
		t.Error("invalid controller index accepted")
	}
	if _, err := NewLayout(4096, 1<<20, 16<<20, 4, nil); err == nil {
		t.Error("empty core table accepted")
	}
}

func TestFrameAllocatorAffinityAndSpill(t *testing.T) {
	l := testLayout(t)
	a := NewFrameAllocatorRange(l, 0, l.SharedFrames())
	lo1, hi1 := l.SharedChunkFrames(1)
	f, ok := a.Alloc(1)
	if !ok || f < lo1 || f >= hi1 {
		t.Fatalf("frame %d not from preferred chunk [%d,%d)", f, lo1, hi1)
	}
	// Drain controller 1 entirely; next allocation must spill to another.
	for {
		f2, ok := a.Alloc(1)
		if !ok {
			t.Fatal("allocator exhausted prematurely")
		}
		if f2 < lo1 || f2 >= hi1 {
			break // spilled
		}
	}
}

func TestFrameAllocatorNeverReturnsZero(t *testing.T) {
	l := testLayout(t)
	a := NewFrameAllocatorRange(l, 0, l.SharedFrames())
	seen := make(map[uint32]bool)
	for {
		f, ok := a.Alloc(0)
		if !ok {
			break
		}
		if f == 0 {
			t.Fatal("allocator handed out the reserved frame 0")
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	if len(seen) != int(l.SharedFrames())-1 {
		t.Fatalf("allocated %d frames, want %d", len(seen), l.SharedFrames()-1)
	}
}

func TestFrameAllocatorFree(t *testing.T) {
	l := testLayout(t)
	a := NewFrameAllocatorRange(l, 0, l.SharedFrames())
	before := a.FreeFrames()
	f, _ := a.Alloc(2)
	if a.FreeFrames() != before-1 {
		t.Fatal("free count not decremented")
	}
	a.Free(f)
	if a.FreeFrames() != before {
		t.Fatal("free count not restored")
	}
}

// backedFrames counts m's materialized frames.
func backedFrames(m *Mem) int {
	n := 0
	for _, c := range m.dir {
		if c == nil {
			continue
		}
		for _, f := range c {
			if f != nil {
				n++
			}
		}
	}
	return n
}
