package cache

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func fill32(v byte) []byte {
	b := make([]byte, LineSize)
	for i := range b {
		b[i] = v
	}
	return b
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1234) != 0x1220 {
		t.Fatalf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LineAddr(0x1220) != 0x1220 {
		t.Fatal("aligned address changed")
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := New("l1", 1024, 2)
	var b [4]byte
	if c.Load(0x100, b[:]) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x100, fill32(7), false)
	if !c.Load(0x104, b[:]) {
		t.Fatal("miss after fill")
	}
	if b[0] != 7 {
		t.Fatalf("loaded %v", b[0])
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c := New("l1", 1024, 2)
	if c.WriteThrough(0x200, []byte{1, 2, 3, 4}) {
		t.Fatal("write miss claimed to update a line")
	}
	var b [4]byte
	if c.Load(0x200, b[:]) {
		t.Fatal("write allocated a line despite no-write-allocate policy")
	}
}

func TestWriteThroughUpdatesPresentLine(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x300, fill32(0xaa), false)
	if !c.WriteThrough(0x304, []byte{1, 2}) {
		t.Fatal("write hit not detected")
	}
	var b [8]byte
	c.Load(0x300, b[:])
	want := [8]byte{0xaa, 0xaa, 0xaa, 0xaa, 1, 2, 0xaa, 0xaa}
	if b != want {
		t.Fatalf("line after write-through = %v, want %v", b, want)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 2 sets (128 bytes): lines 0x000, 0x080, 0x100 share set 0.
	c := New("tiny", 128, 2)
	c.Fill(0x000, fill32(1), false)
	c.Fill(0x080, fill32(2), false)
	var b [1]byte
	c.Load(0x000, b[:]) // touch 0x000 so 0x080 is LRU
	c.Fill(0x100, fill32(3), false)
	if c.find(0x000) < 0 {
		t.Fatal("MRU line evicted")
	}
	if c.find(0x080) >= 0 {
		t.Fatal("LRU line survived")
	}
	if c.find(0x100) < 0 {
		t.Fatal("new line not resident")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestRefillInPlace(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x100, fill32(1), false)
	if v := c.Fill(0x100, fill32(2), false); v.Valid {
		t.Fatal("refill of resident line reported eviction")
	}
	var b [1]byte
	c.Load(0x100, b[:])
	if b[0] != 2 {
		t.Fatalf("refill did not replace data: %v", b[0])
	}
	if n := validLines(c); n != 1 {
		t.Fatalf("valid lines = %d, want 1", n)
	}
}

// validLines counts c's resident lines.
func validLines(c *Cache) int {
	n := 0
	for _, t := range c.tags {
		if t&tagValid != 0 {
			n++
		}
	}
	return n
}

func TestCL1INVMBDropsOnlyMPBTLines(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x100, fill32(1), true)  // MPBT (shared SVM data)
	c.Fill(0x200, fill32(2), false) // normal private data
	c.InvalidateMPBT()
	if c.find(0x100) >= 0 {
		t.Fatal("MPBT line survived CL1INVMB")
	}
	if c.find(0x200) < 0 {
		t.Fatal("non-MPBT line dropped by CL1INVMB")
	}
}

// TestLinesAllocatedOnFirstFill pins the lazy line storage: a never-filled
// cache holds no tags, chunk directory or chunks and answers every operation
// exactly as a cache that was filled and then emptied, and the first Fill
// makes the tags, the directory and the one chunk its way lives in.
func TestLinesAllocatedOnFirstFill(t *testing.T) {
	fresh := New("l2", 4096, 4)
	if fresh.tags != nil || fresh.chunks != nil {
		t.Fatal("New allocated the tags or the chunk directory")
	}
	emptied := New("l2", 4096, 4)
	emptied.Fill(0x100, fill32(1), true)
	emptied.Fill(0x200, fill32(2), true)
	emptied.InvalidateMPBT()
	emptied.stats = Stats{}

	for _, c := range []*Cache{fresh, emptied} {
		var b [4]byte
		if c.Load(0x100, b[:]) {
			t.Fatalf("%p: Load hit", c)
		}
		if c.find(0x200) >= 0 {
			t.Fatalf("%p: Contains", c)
		}
		if c.WriteThrough(0x104, []byte{1, 2}) || c.WriteUpdate(0x204, []byte{3}) {
			t.Fatalf("%p: write hit", c)
		}
		c.InvalidateMPBT()
		if n := validLines(c); n != 0 {
			t.Fatalf("%p: %d valid lines", c, n)
		}
	}
	if fresh.tags != nil || fresh.chunks != nil {
		t.Fatal("an operation other than Fill allocated the tags or the chunk directory")
	}
	if fs, es := fresh.Stats(), emptied.Stats(); fs != es {
		t.Fatalf("never-filled stats %+v, filled-then-emptied %+v", fs, es)
	}

	fresh.Fill(0x100, fill32(7), false)
	if n := 4096 / LineSize; len(fresh.tags) != n || len(fresh.chunks) != n/chunkWays {
		t.Fatalf("first Fill allocated %d tags and a %d-chunk directory", len(fresh.tags), len(fresh.chunks))
	}
	if n := madeChunks(fresh); n != 1 {
		t.Fatalf("first Fill made %d chunks", n)
	}
	if fresh.find(0x100) < 0 {
		t.Fatal("first Fill did not install its line")
	}
}

func madeChunks(c *Cache) int {
	n := 0
	for _, ch := range c.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// sparseLine is the i-th of up to 64 scattered lines of a 256 KiB 4-way
// cache (2 048 sets, 8 to a chunk): one in every 32nd set, each with a
// different tag, so each lands in a chunk of its own.
func sparseLine(i int) uint32 { return uint32(i) * (32 + 2048) * LineSize }

// sparseFills fills the first n sparse lines.
func sparseFills(c *Cache, n int, line []byte) {
	for i := 0; i < n; i++ {
		c.Fill(sparseLine(i), line, false)
	}
}

// TestSparseCacheIsSmall pins what a cache touched in few places costs the
// host: a 256 KiB L2 that takes 64 scattered fills allocates the tag array,
// the chunk directory and 64 chunks, ~114 KiB, where storing every line
// took ~360 KiB.
func TestSparseCacheIsSmall(t *testing.T) {
	const size, fills = 256 << 10, 64
	if n := unsafe.Sizeof(chunk{}); n != 1280 {
		t.Fatalf("a chunk is %d bytes, not the 1 280-byte size class", n)
	}
	line := fill32(3)
	lines := size / LineSize
	// The directory holds pointers, so the allocator gives it a header and
	// rounds it up a size class: 2 304 bytes for 2 048.
	bound := uint64(lines*int(unsafe.Sizeof(uint32(0))) +
		lines/chunkWays*int(unsafe.Sizeof((*chunk)(nil))) + 256 +
		fills*int(unsafe.Sizeof(chunk{})))
	c := New("l2", size, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sparseFills(c, fills, line)
	runtime.ReadMemStats(&after)
	if n := madeChunks(c); n != fills {
		t.Fatalf("%d fills made %d chunks", fills, n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("%d scattered fills allocated %d bytes in %d allocations, want at most %d", fills, got, after.Mallocs-before.Mallocs, bound)
	}
	if n := after.Mallocs - before.Mallocs; n > 2+fills {
		t.Fatalf("%d scattered fills made %d allocations, want at most %d", fills, n, 2+fills)
	}
	for i := 0; i < fills; i++ {
		var b [8]byte
		if !c.Load(sparseLine(i), b[:]) || b[0] != 3 {
			t.Fatalf("fill %d: Load missed or read %x", i, b)
		}
	}
}

// BenchmarkSparseL2Fill prices a core that touches its L2 in few places: a
// fresh 256 KiB 4-way L2 takes 64 scattered fills, then hits each line once.
func BenchmarkSparseL2Fill(b *testing.B) {
	const fills = 64
	line := fill32(5)
	var dst [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New("l2", 256<<10, 4)
		sparseFills(c, fills, line)
		for j := 0; j < fills; j++ {
			c.Load(sparseLine(j), dst[:])
		}
	}
}

// TestStaleness is the heart of the non-coherence model: a cached line does
// not observe later memory writes until invalidated.
func TestStaleness(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x100, fill32(1), true)
	// "Memory" changes behind the cache's back (another core wrote it).
	// The cache still returns the stale 1s.
	var b [4]byte
	c.Load(0x100, b[:])
	if b[0] != 1 {
		t.Fatal("unexpected")
	}
	// Only after invalidation (and a refill with fresh bytes) does the new
	// value appear.
	c.InvalidateMPBT()
	if c.Load(0x100, b[:]) {
		t.Fatal("stale line survived invalidate")
	}
	c.Fill(0x100, fill32(9), true)
	c.Load(0x100, b[:])
	if b[0] != 9 {
		t.Fatal("fresh fill not visible")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New("x", 100, 2) }, // not a multiple of ways*LineSize
		func() { New("x", 0, 2) },
		func() { New("x", 1024, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			bad()
		}()
	}
}

func TestCrossLineAccessPanics(t *testing.T) {
	c := New("l1", 1024, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-line access accepted")
		}
	}()
	var b [8]byte
	c.Load(0x1c, b[:]) // 0x1c+8 crosses the 0x20 boundary
}

// Property: after filling a line with known bytes, loads of any in-line
// subrange return exactly those bytes.
func TestFillLoadProperty(t *testing.T) {
	c := New("l1", 2048, 4)
	f := func(lineSel uint8, off0, n0 uint8, pattern byte) bool {
		base := uint32(lineSel) * LineSize
		data := make([]byte, LineSize)
		for i := range data {
			data[i] = pattern ^ byte(i)
		}
		c.Fill(base, data, false)
		off := int(off0) % LineSize
		n := 1 + int(n0)%(LineSize-off)
		got := make([]byte, n)
		if !c.Load(base+uint32(off), got) {
			return false
		}
		for i := range got {
			if got[i] != data[off+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWCBMergesWithinLine(t *testing.T) {
	w := NewWCB()
	for i := uint32(0); i < LineSize; i += 8 {
		if _, drained := w.Write(0x100+i, []byte{1, 2, 3, 4, 5, 6, 7, 8}); drained {
			t.Fatal("drain within one line")
		}
	}
	f, ok := w.Flush()
	if !ok {
		t.Fatal("flush of full buffer returned nothing")
	}
	if !f.Full() {
		t.Fatalf("mask = %#x, want full", f.Mask)
	}
	if f.LineAddr != 0x100 {
		t.Fatalf("line addr = %#x", f.LineAddr)
	}
	s := w.Stats()
	if s.Writes != 4 || s.Flushes != 1 || s.FullLines != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestWCBDrainsOnLineChange(t *testing.T) {
	w := NewWCB()
	w.Write(0x100, []byte{0xaa})
	drain, drained := w.Write(0x200, []byte{0xbb})
	if !drained {
		t.Fatal("no drain on line change")
	}
	if drain.LineAddr != 0x100 || drain.Mask != 1 || drain.Data[0] != 0xaa {
		t.Fatalf("drained %+v", drain)
	}
	if !w.valid {
		t.Fatal("new line not buffered")
	}
}

func TestWCBApplyMask(t *testing.T) {
	w := NewWCB()
	w.Write(0x104, []byte{9, 9})
	f, _ := w.Flush()
	line := fill32(0x11)
	f.Apply(line)
	if line[3] != 0x11 || line[4] != 9 || line[5] != 9 || line[6] != 0x11 {
		t.Fatalf("apply produced %v", line[:8])
	}
}

func TestWCBCoversRead(t *testing.T) {
	w := NewWCB()
	w.Write(0x110, []byte{1})
	if !w.CoversRead(0x100, 32) {
		t.Fatal("overlap not detected")
	}
	if w.CoversRead(0x200, 8) {
		t.Fatal("false overlap")
	}
	if w.Stats().ReadStalls != 1 {
		t.Fatalf("read stalls = %d", w.Stats().ReadStalls)
	}
	w.Flush()
	if w.CoversRead(0x100, 32) {
		t.Fatal("empty buffer claims overlap")
	}
}

func TestWCBEmptyFlush(t *testing.T) {
	w := NewWCB()
	if _, ok := w.Flush(); ok {
		t.Fatal("empty flush returned data")
	}
}

// Property: the WCB never loses a written byte — every store is visible in
// some subsequent drain with the right value and mask bit.
func TestWCBNoLostBytesProperty(t *testing.T) {
	f := func(writes []struct {
		Off uint8
		Val byte
	}) bool {
		w := NewWCB()
		want := map[uint32]byte{} // final value per address
		var drains []Flushed
		for _, wr := range writes {
			addr := uint32(wr.Off) // within a few lines
			if d, ok := w.Write(addr, []byte{wr.Val}); ok {
				drains = append(drains, d)
			}
			want[addr] = wr.Val
		}
		if d, ok := w.Flush(); ok {
			drains = append(drains, d)
		}
		// Replay drains in order into a flat memory image.
		mem := make([]byte, 256+LineSize)
		for _, d := range drains {
			d.Apply(mem[d.LineAddr : d.LineAddr+LineSize])
		}
		for addr, v := range want {
			if mem[addr] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// scanCache is the linear-scan model the packed tag words are checked
// against: the same geometry, LRU replacement and no-write-allocate rules as
// Cache, with a nil-or-line record per way holding its state in plain
// fields, a full scan on every lookup, and none of the tag packing,
// set-mask or in-place machinery.
type scanCache struct {
	sets, ways int
	slots      [][]*scanLine // [set][way]; nil = invalid
	tick       uint64
	stats      Stats
}

type scanLine struct {
	tag         uint32
	mpbt, dirty bool
	lastUse     uint64
	data        [LineSize]byte
}

func newScanCache(size, ways int) *scanCache {
	m := &scanCache{sets: size / (ways * LineSize), ways: ways}
	m.slots = make([][]*scanLine, m.sets)
	for i := range m.slots {
		m.slots[i] = make([]*scanLine, ways)
	}
	return m
}

func (m *scanCache) set(paddr uint32) []*scanLine {
	return m.slots[int(paddr/LineSize)%m.sets]
}

func (m *scanCache) find(paddr uint32) *scanLine {
	for _, l := range m.set(paddr) {
		if l != nil && l.tag == LineAddr(paddr) {
			return l
		}
	}
	return nil
}

func (m *scanCache) load(paddr uint32, dst []byte) bool {
	m.tick++
	l := m.find(paddr)
	if l == nil {
		m.stats.Misses++
		return false
	}
	l.lastUse = m.tick
	copy(dst, l.data[paddr%LineSize:])
	m.stats.Hits++
	return true
}

func (m *scanCache) fill(paddr uint32, data []byte, mpbt bool) Victim {
	m.tick++
	set := m.set(paddr)
	way := -1
	for i, l := range set { // refill in place
		if l != nil && l.tag == LineAddr(paddr) {
			way = i
		}
	}
	for i, l := range set { // else the first free way
		if way < 0 && l == nil {
			way = i
		}
	}
	var out Victim
	if way < 0 { // else evict the least recently used
		way = 0
		for i, l := range set {
			if l.lastUse < set[way].lastUse {
				way = i
			}
		}
		m.stats.Evictions++
		out = Victim{Valid: true, Dirty: set[way].dirty, LineAddr: set[way].tag}
		if out.Dirty { // only a write-back owes, and carries, the bytes
			out.Data = set[way].data
		}
	}
	m.stats.Fills++
	set[way] = &scanLine{tag: LineAddr(paddr), mpbt: mpbt, lastUse: m.tick}
	copy(set[way].data[:], data)
	return out
}

func (m *scanCache) write(paddr uint32, src []byte, dirty bool) bool {
	m.tick++
	l := m.find(paddr)
	if l == nil {
		m.stats.WriteMisses++
		return false
	}
	l.lastUse = m.tick
	l.dirty = l.dirty || dirty
	copy(l.data[paddr%LineSize:], src)
	m.stats.WriteHits++
	return true
}

// invalidateMPBT drops every MPBT line: CL1INVMB.
func (m *scanCache) invalidateMPBT() {
	for _, set := range m.slots {
		for i, l := range set {
			if l != nil && l.mpbt {
				set[i] = nil
				m.stats.Invalidates++
			}
		}
	}
}

func (m *scanCache) validLines() int {
	n := 0
	for _, set := range m.slots {
		for _, l := range set {
			if l != nil {
				n++
			}
		}
	}
	return n
}

// scanInput is one seeded run of TestWayHintsMatchLinearScan: a geometry,
// the address range in multiples of the cache size, the number of
// operations and the weight of each operation kind.
type scanInput struct {
	name                                 string
	size, ways                           int
	span                                 int // address range / cache size
	sparse                               int // if > 0, only this many sets are touched
	ops                                  int
	load, fill, through, update, invMPBT int
	mpbtPercent                          int // share of fills tagged MPBT
}

// TestWayHintsMatchLinearScan drives Cache's packed tag words and the
// linear-scan model with the same seeded operation sequences — loads, fills
// (after a miss and as refills in place), both write policies and CL1INVMB
// — and demands the same hit/miss, bytes, victim (a dirty one with its
// bytes) and statistics at every step. The first three inputs spread the
// operations evenly over eight times the cache, so sets fill up and evict;
// "three-sets" and "five-sets" take the division fallback of the set
// selection. The rest concentrate on the state bits: "mixed" interleaves
// MPBT and write-back dirty lines, "update-flush" flushes WriteUpdate's
// dirty lines out as victims, "refill" refills resident (often dirty) lines
// in place, and "clmpbt" runs CL1INVMB over mixed lines. "sparse" touches
// eight of a large cache's 256 sets, each of whose 24 ways straddle two
// line chunks: its fills, LRU victims and dirty write-backs cross chunk
// edges while most chunks are never made.
func TestWayHintsMatchLinearScan(t *testing.T) {
	for _, in := range scanInputs() {
		t.Run(in.name, func(t *testing.T) { runScanInput(t, in) })
	}
}

// scanInputs are TestWayHintsMatchLinearScan's seeded inputs.
func scanInputs() []scanInput {
	// The spread-out inputs keep the long-standing mix: of every 2 048
	// operations 1 024 loads, 256 fills and 256 of each write policy, with
	// one CL1INVMB, so sets stay full between clears and every fill past
	// the first few chooses its victim by LRU.
	even := func(name string, size, ways int) scanInput {
		return scanInput{name: name, size: size, ways: ways, span: 8, ops: 200_000,
			load: 1024, fill: 256, through: 256, update: 256, invMPBT: 1, mpbtPercent: 50}
	}
	return []scanInput{
		even("2-way", 1024, 2),
		even("4-way", 4096, 4),
		even("three-sets", 3*8*LineSize, 8),
		{name: "mixed", size: 4096, ways: 4, span: 2, ops: 100_000,
			load: 8, fill: 8, through: 4, update: 8, invMPBT: 2, mpbtPercent: 50},
		{name: "update-flush", size: 2048, ways: 4, span: 2, ops: 100_000,
			load: 4, fill: 6, update: 12, invMPBT: 1, mpbtPercent: 10},
		{name: "refill", size: 1024, ways: 4, span: 2, ops: 100_000,
			load: 4, fill: 12, update: 8, invMPBT: 1, mpbtPercent: 30},
		{name: "clmpbt", size: 4096, ways: 4, span: 2, ops: 100_000,
			load: 8, fill: 8, through: 4, update: 4, invMPBT: 3, mpbtPercent: 60},
		{name: "five-sets", size: 5 * 4 * LineSize, ways: 4, span: 4, ops: 100_000,
			load: 8, fill: 8, through: 2, update: 6, invMPBT: 2, mpbtPercent: 50},
		{name: "sparse", size: 256 * 24 * LineSize, ways: 24, span: 2, sparse: 8, ops: 100_000,
			load: 8, fill: 8, through: 2, update: 6, invMPBT: 1, mpbtPercent: 30},
	}
}

// linePicker returns the input's hot sets and a draw of a line address
// from its range. A sparse input's hot sets lie evenly apart, each one or
// two sets past a multiple of four: with 24 ways those sets' ways straddle
// a chunk edge.
func (in scanInput) linePicker(rng *rand.Rand) (hot []uint32, pick func() uint32) {
	lines := uint32(in.span * in.size / LineSize)
	sets := uint32(in.size / (in.ways * LineSize))
	for i := 0; i < in.sparse; i++ {
		hot = append(hot, uint32(i)*(sets/uint32(in.sparse))+1+uint32(i%2))
	}
	return hot, func() uint32 {
		la := uint32(rng.Intn(int(lines))) * LineSize
		if hot != nil { // the same number of lines per touched set
			la = (la/LineSize/sets*sets + hot[rng.Intn(len(hot))]) * LineSize
		}
		return la
	}
}

func runScanInput(t *testing.T, in scanInput) {
	c := New(in.name, in.size, in.ways)
	m := newScanCache(in.size, in.ways)
	rng := rand.New(rand.NewSource(int64(in.size*in.ways + in.span)))
	lines := uint32(in.span * in.size / LineSize)
	weights := []int{in.load, in.fill, in.through, in.update, in.invMPBT}
	total := 0
	for _, w := range weights {
		total += w
	}
	hot, pick := in.linePicker(rng)
	var refills, dirtyRefills, dirtyVictims, mpbtDrops int
	for op := 0; op < in.ops; op++ {
		la := pick()
		n := 1 << rng.Intn(4) // 1, 2, 4 or 8 bytes, aligned: never crosses a line
		paddr := la + uint32(rng.Intn(LineSize/n)*n)
		var word, got, want [8]byte
		rng.Read(word[:n])
		kind, r := 0, rng.Intn(total)
		for r >= weights[kind] {
			r -= weights[kind]
			kind++
		}
		switch kind {
		case 0:
			hit, mhit := c.Load(paddr, got[:n]), m.load(paddr, want[:n])
			if hit != mhit || got != want {
				t.Fatalf("op %d: Load(%#x, %d) = %v %x, model %v %x", op, paddr, n, hit, got[:n], mhit, want[:n])
			}
			if hit || rng.Intn(4) == 0 {
				break
			}
			fallthrough // read allocate, as the core does after most misses
		case 1:
			if l := m.find(paddr); l != nil {
				refills++
				if l.dirty {
					dirtyRefills++
				}
			}
			var data [LineSize]byte
			rng.Read(data[:])
			mpbt := rng.Intn(100) < in.mpbtPercent
			v, mv := c.Fill(paddr, data[:], mpbt), m.fill(paddr, data[:], mpbt)
			if v != mv {
				t.Fatalf("op %d: Fill(%#x) displaced %+v, model %+v", op, paddr, v, mv)
			}
			if mv.Dirty {
				dirtyVictims++
			}
		case 2:
			if hit, mhit := c.WriteThrough(paddr, word[:n]), m.write(paddr, word[:n], false); hit != mhit {
				t.Fatalf("op %d: WriteThrough(%#x) = %v, model %v", op, paddr, hit, mhit)
			}
		case 3:
			if hit, mhit := c.WriteUpdate(paddr, word[:n]), m.write(paddr, word[:n], true); hit != mhit {
				t.Fatalf("op %d: WriteUpdate(%#x) = %v, model %v", op, paddr, hit, mhit)
			}
		case 4:
			before := m.stats.Invalidates
			c.InvalidateMPBT()
			m.invalidateMPBT()
			mpbtDrops += int(m.stats.Invalidates - before)
		}
		if c.Stats() != m.stats {
			t.Fatalf("op %d: stats %+v, model %+v", op, c.Stats(), m.stats)
		}
	}
	for la := uint32(0); la < lines*LineSize; la += LineSize {
		if resident := c.find(la) >= 0; resident != (m.find(la) != nil) {
			t.Fatalf("line %#x resident %v, model %v", la, resident, m.find(la) != nil)
		}
	}
	if n := validLines(c); n != m.validLines() {
		t.Fatalf("%d valid lines, model %d", n, m.validLines())
	}
	for _, set := range hot {
		first, last := set*uint32(in.ways), (set+1)*uint32(in.ways)-1
		if first>>chunkShift == last>>chunkShift || c.chunks[first>>chunkShift] == nil || c.chunks[last>>chunkShift] == nil {
			t.Fatalf("set %d's ways %d..%d do not use two made chunks", set, first, last)
		}
	}
	if made := madeChunks(c); hot != nil && made > 2*len(hot) {
		t.Fatalf("%d touched sets made %d of %d chunks", len(hot), made, len(c.chunks))
	}
	// An eviction is an LRU choice among a full set's valid ways; every
	// input must make one at least once in 32 operations, so frequent
	// invalidations cannot leave the victim choice nearly untested.
	if s := c.Stats(); s.Evictions < uint64(in.ops/32) || s.Hits == 0 || s.WriteHits == 0 || refills == 0 ||
		in.update > 0 && (dirtyVictims == 0 || dirtyRefills == 0) ||
		in.invMPBT > 0 && (s.Invalidates == 0 || mpbtDrops == 0) {
		t.Fatalf("the sequence missed a path: %+v, %d refills (%d dirty), %d dirty victims, %d CL1INVMB drops",
			s, refills, dirtyRefills, dirtyVictims, mpbtDrops)
	}
}

// TestMPBTCountMatchesFullWalk checks the MPBT line count that lets
// CL1INVMB skip and stop early. Over TestWayHintsMatchLinearScan's inputs,
// a cache and its twin take the same seeded fills (MPBT and not, refills in
// place, evictions of MPBT victims), writes and invalidations; the twin
// invalidates by walking every tag word, as CL1INVMB did before the count.
// After every operation both must hold the same tag words and
// Invalidates, and the count must equal a recount of valid MPBT tags.
func TestMPBTCountMatchesFullWalk(t *testing.T) {
	for _, in := range scanInputs() {
		t.Run(in.name, func(t *testing.T) {
			c, twin := New(in.name, in.size, in.ways), New(in.name, in.size, in.ways)
			rng := rand.New(rand.NewSource(int64(in.size*in.ways + in.span)))
			_, pick := in.linePicker(rng)
			var line [LineSize]byte
			// Fills weigh 4 x ways times the input's, so sets fill up and
			// evict between walks even on the inputs that clear often.
			fill := 4 * in.ways * in.fill
			var mpbtRefills, mpbtEvictions, walks int
			for op := 0; op < 20_000; op++ {
				paddr := pick()
				switch k := rng.Intn(fill + in.update + in.invMPBT); {
				case k < fill:
					mpbt := rng.Intn(100) < in.mpbtPercent
					before := mpbtRecount(c)
					v := c.Fill(paddr, line[:], mpbt)
					twin.Fill(paddr, line[:], mpbt)
					if dropped := before - mpbtRecount(c); mpbt && dropped == 0 || !mpbt && dropped == 1 {
						if v.Valid {
							mpbtEvictions++
						} else {
							mpbtRefills++
						}
					}
				case k < fill+in.update:
					c.WriteUpdate(paddr, line[:8])
					twin.WriteUpdate(paddr, line[:8])
				default:
					walks++
					c.InvalidateMPBT()
					for i, tag := range twin.tags { // the full walk
						if tag&(tagValid|tagMPBT) == tagValid|tagMPBT {
							twin.tags[i] = tag &^ tagValid
							twin.stats.Invalidates++
						}
					}
				}
				if !slices.Equal(c.tags, twin.tags) || c.stats.Invalidates != twin.stats.Invalidates {
					t.Fatalf("op %d: tags or Invalidates (%d) differ from the full walk's (%d)",
						op, c.stats.Invalidates, twin.stats.Invalidates)
				}
				if n := mpbtRecount(c); c.mpbtLines != uint32(n) {
					t.Fatalf("op %d: count %d, %d valid MPBT tags", op, c.mpbtLines, n)
				}
			}
			if mpbtRefills == 0 || mpbtEvictions == 0 || walks == 0 || c.stats.Invalidates == 0 {
				t.Fatalf("the sequence missed a path: %d MPBT refills, %d MPBT evictions, %d walks, %d invalidates",
					mpbtRefills, mpbtEvictions, walks, c.stats.Invalidates)
			}
		})
	}
}

// mpbtRecount counts c's valid MPBT-tagged ways.
func mpbtRecount(c *Cache) int {
	n := 0
	for _, t := range c.tags {
		if t&(tagValid|tagMPBT) == tagValid|tagMPBT {
			n++
		}
	}
	return n
}
