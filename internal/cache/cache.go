// Package cache models the SCC core's cache hierarchy functionally and
// temporally: a write-through L1, a write-back L2 (no write allocate), and
// the write-combine buffer (WCB) the SCC adds for MPBT-typed data.
//
// Unlike a statistics-only model, lines carry real bytes. Because the SCC
// has no hardware coherence, a line cached by one core goes stale the moment
// another core writes the backing memory — and this model faithfully returns
// the stale bytes. The SVM layer's flushes and invalidations are therefore
// functionally load-bearing: remove them and simulated programs compute
// wrong results, exactly as they would on silicon.
//
// SCC-core specifics that the evaluation in the paper leans on, all modeled:
//   - no write allocate anywhere: a write miss does not fill a cache level
//     ("the P54C cores are not able to update the cache entries on a write
//     miss"), so freshly written arrays reach a cache only when later read
//     (L1/L2 fills) or when a write HITS a resident L2 line (absorbed by
//     the write-back L2 — the baseline's superlinear regime in Figure 9);
//   - lines tagged MPBT (the SCC's new memory type) bypass the L2 entirely
//     and are the only lines the CL1INVMB instruction invalidates;
//   - MPBT writes are combined in the one-line WCB, turning byte-granular
//     write-through traffic into line-granular transactions.
package cache

import "fmt"

// LineSize is the SCC cache line size in bytes.
const LineSize = 32

// lineMask isolates the offset inside a line.
const lineMask = LineSize - 1

// LineAddr returns the line-aligned base of paddr.
func LineAddr(paddr uint32) uint32 { return paddr &^ uint32(lineMask) }

type line struct {
	valid   bool
	mpbt    bool
	dirty   bool   // write-back levels only; write-through levels never set it
	tag     uint32 // line-aligned physical address
	lastUse uint64
	data    [LineSize]byte
}

// Victim describes a line displaced by Fill. When Dirty, the caller owes a
// write-back transaction to the next level.
type Victim struct {
	Valid    bool
	Dirty    bool
	LineAddr uint32
	Data     [LineSize]byte
}

// Stats counts cache events for reporting and tests.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	WriteHits   uint64 // write-through writes that also updated a line
	WriteMisses uint64 // write-through writes that bypassed (no allocate)
	Invalidates uint64 // lines dropped by invalidation operations
}

// Cache is one set-associative, write-through, no-write-allocate level.
type Cache struct {
	name  string
	sets  int
	ways  int
	lines []line // sets*ways, set-major; nil until the first Fill
	tick  uint64
	stats Stats

	// setMask replaces the modulo in set selection when sets is a power of
	// two (it always is for the modeled geometries); 0 selects the division
	// fallback.
	setMask uint32
	// hint caches the way of the last hit per set (way+1; 0 = no hint), so
	// repeat hits skip the linear way scan. Functionally invisible: a hint
	// probe returns exactly the line the scan would find, and LRU state
	// advances identically. Allocated with lines.
	hint []uint8
}

// New creates a cache of the given total size and associativity.
// size must be a multiple of ways*LineSize; ways is capped at 255 by the
// one-byte way hints. The line array is allocated by the first Fill, so a
// core that never touches cached memory costs no host memory for it; until
// then the cache answers exactly as an empty one.
func New(name string, size, ways int) *Cache {
	if ways <= 0 || ways > 255 || size <= 0 || size%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d ways=%d", name, size, ways))
	}
	sets := size / (ways * LineSize)
	c := &Cache{name: name, sets: sets, ways: ways}
	if sets&(sets-1) == 0 {
		c.setMask = uint32(sets - 1)
	}
	return c
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Size returns the capacity in bytes.
func (c *Cache) Size() int { return c.sets * c.ways * LineSize }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the event counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) setIndex(paddr uint32) int {
	if c.setMask != 0 {
		return int((paddr / LineSize) & c.setMask)
	}
	return int(paddr/LineSize) % c.sets
}

func (c *Cache) set(paddr uint32) []line {
	s := c.setIndex(paddr)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

func (c *Cache) find(paddr uint32) *line {
	if c.lines == nil {
		return nil // never filled
	}
	tag := LineAddr(paddr)
	s := c.setIndex(paddr)
	set := c.lines[s*c.ways : (s+1)*c.ways]
	if w := c.hint[s]; w != 0 {
		if l := &set[w-1]; l.valid && l.tag == tag {
			return l
		}
	}
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.hint[s] = uint8(i + 1)
			return &set[i]
		}
	}
	return nil
}

// Load copies len(dst) bytes at paddr from the cache if the line is present,
// reporting a hit. The access must not cross a line boundary.
func (c *Cache) Load(paddr uint32, dst []byte) bool {
	checkWithinLine(paddr, len(dst))
	c.tick++
	if l := c.find(paddr); l != nil {
		l.lastUse = c.tick
		o := int(paddr & lineMask)
		CopySmall(dst, l.data[o:o+len(dst)])
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Contains reports whether the line holding paddr is cached, without
// touching LRU state or statistics.
func (c *Cache) Contains(paddr uint32) bool { return c.find(paddr) != nil }

// Fill installs a whole line (fetched from the next level) and returns the
// displaced victim, if any. A write-through level never produces dirty
// victims; a write-back level's dirty victim must be written to the next
// level by the caller.
func (c *Cache) Fill(paddr uint32, data []byte, mpbt bool) Victim {
	if len(data) != LineSize {
		panic(fmt.Sprintf("cache %s: fill with %d bytes", c.name, len(data)))
	}
	if c.lines == nil {
		c.lines = make([]line, c.sets*c.ways)
		c.hint = make([]uint8, c.sets)
	}
	tag := LineAddr(paddr)
	c.tick++
	set := c.set(paddr)
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			victim = l // refill in place, even past a free way: no duplicates
			break
		}
		if victim.valid && (!l.valid || l.lastUse < victim.lastUse) {
			victim = l // the first free way, else the least recently used
		}
	}
	var out Victim
	if victim.valid && victim.tag != tag {
		c.stats.Evictions++
		out = Victim{Valid: true, Dirty: victim.dirty, LineAddr: victim.tag, Data: victim.data}
	}
	c.stats.Fills++
	victim.valid = true
	victim.mpbt = mpbt
	victim.dirty = false
	victim.tag = tag
	victim.lastUse = c.tick
	copy(victim.data[:], data)
	return out
}

// WriteThrough updates the cached copy if (and only if) the line is present
// — the no-write-allocate policy — and reports whether it was. The caller
// always also writes memory; this call only keeps a present line coherent
// with the core's own store stream.
func (c *Cache) WriteThrough(paddr uint32, src []byte) bool {
	checkWithinLine(paddr, len(src))
	c.tick++
	if l := c.find(paddr); l != nil {
		l.lastUse = c.tick
		CopySmall(l.data[paddr&lineMask:], src)
		c.stats.WriteHits++
		return true
	}
	c.stats.WriteMisses++
	return false
}

// WriteUpdate applies a store to a present line under write-back policy,
// marking it dirty, and reports the hit. On a miss it does nothing (no
// write allocate — the P54C cannot update cache entries on a write miss);
// the caller forwards the store to the next level instead.
func (c *Cache) WriteUpdate(paddr uint32, src []byte) bool {
	checkWithinLine(paddr, len(src))
	c.tick++
	if l := c.find(paddr); l != nil {
		l.lastUse = c.tick
		l.dirty = true
		CopySmall(l.data[paddr&lineMask:], src)
		c.stats.WriteHits++
		return true
	}
	c.stats.WriteMisses++
	return false
}

// FlushDirty drains every dirty line through fn (write-back to the next
// level) and marks them clean. Used when another agent must observe memory
// (host-side extraction, explicit flush routines).
func (c *Cache) FlushDirty(fn func(lineAddr uint32, data []byte)) {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			fn(l.tag, l.data[:])
			l.dirty = false
		}
	}
}

// InvalidateMPBT drops every MPBT-tagged line: the CL1INVMB instruction.
func (c *Cache) InvalidateMPBT() {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].mpbt {
			c.lines[i].valid = false
			c.stats.Invalidates++
		}
	}
}

// InvalidateAll drops every line.
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.lines[i].valid = false
			c.stats.Invalidates++
		}
	}
}

// InvalidateLine drops the line containing paddr if present.
func (c *Cache) InvalidateLine(paddr uint32) {
	if l := c.find(paddr); l != nil {
		l.valid = false
		c.stats.Invalidates++
	}
}

// ValidLines counts resident lines (diagnostics).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// CopySmall copies len(src) bytes into dst (which must be at least as
// long). The 8- and 4-byte cases — the word sizes every simulated load and
// store uses — become direct moves instead of memmove calls, which profiles
// show dominating the copy traffic on the access hot path.
func CopySmall(dst, src []byte) {
	switch len(src) {
	case 8:
		*(*[8]byte)(dst) = [8]byte(src)
	case 4:
		*(*[4]byte)(dst) = [4]byte(src)
	default:
		copy(dst, src)
	}
}

// checkWithinLine stays inlinable (every cache access runs it) by keeping
// the formatting panic out of line.
func checkWithinLine(paddr uint32, n int) {
	if n <= 0 || int(paddr&lineMask)+n > LineSize {
		panicCrossesLine(paddr, n)
	}
}

func panicCrossesLine(paddr uint32, n int) {
	panic(fmt.Sprintf("cache: access [%#x,+%d) crosses a line boundary", paddr, n))
}
