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

// Tag word flags. Tags are line-aligned addresses, so the low five bits of
// a packed tag word are free to carry the line's state.
const (
	tagValid uint32 = 1 << iota
	tagMPBT
	tagDirty // write-back levels only; write-through levels never set it

	// tagState is every flag that does not take part in a lookup.
	tagState = tagMPBT | tagDirty
)

// Victim describes a line displaced by Fill. When Dirty, the caller owes a
// write-back transaction to the next level, and Data holds the line's
// bytes; a clean victim owes nothing and carries none, so the write-through
// L1's fills copy no bytes out.
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
	Invalidates uint64 // lines dropped by CL1INVMB
}

// Ways are grouped into chunks of chunkWays consecutive way indices.
const (
	chunkShift = 5
	chunkWays  = 1 << chunkShift
	chunkMask  = chunkWays - 1
)

// chunk is the LRU stamps and bytes of chunkWays ways, laid out as two
// arrays rather than one record per way: 1 280 bytes, a Go size class, with
// every line 32-byte aligned, and a hit's stamp write and byte copy touch
// the two cache lines they need.
type chunk struct {
	lastUse [chunkWays]uint64
	data    [chunkWays][LineSize]byte
}

// Cache is one set-associative, write-through, no-write-allocate level.
type Cache struct {
	name       string
	sets, ways uint32 // 32 bits keep the struct in the 144-byte size class
	tick       uint64
	stats      Stats

	// tags holds one packed word per way, set-major: the line address ORed
	// with tagValid, tagMPBT and tagDirty. Lookups, victim choice and the
	// CL1INVMB walk read only this array. It is nil until the first Fill.
	tags []uint32
	// chunks holds the LRU stamps and line bytes of 32 consecutive ways
	// each: way i lives in chunks[i>>chunkShift] at i&chunkMask. The
	// directory is made with tags; a chunk is made when Fill first installs
	// a line in one of its ways, so a valid way always has its chunk and a
	// cache costs host memory for the lines a core touches, not its size.
	chunks []*chunk

	// setMask replaces the modulo in set selection when sets is a power of
	// two (it always is for the modeled geometries); 0 selects the division
	// fallback.
	setMask uint32
	// mpbtLines counts the valid MPBT-tagged ways, kept by Fill, so
	// CL1INVMB skips a cache holding none and stops at the last one.
	mpbtLines uint32
}

// New creates a cache of the given total size and associativity.
// size must be a multiple of ways*LineSize. The tag array and the chunk
// directory are allocated by the first Fill, and each chunk by the first
// Fill into its ways, so a core that never touches cached memory costs no
// host memory for lines; until then the cache answers exactly as an empty
// one.
func New(name string, size, ways int) *Cache {
	if ways <= 0 || size <= 0 || size%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d ways=%d", name, size, ways))
	}
	sets := size / (ways * LineSize)
	c := &Cache{name: name, sets: uint32(sets), ways: uint32(ways)}
	if sets&(sets-1) == 0 {
		c.setMask = uint32(sets - 1)
	}
	return c
}

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// setBase returns the index of the first way of paddr's set.
func (c *Cache) setBase(paddr uint32) int {
	if c.setMask != 0 {
		return int((paddr / LineSize & c.setMask) * c.ways)
	}
	return int(paddr / LineSize % c.sets * c.ways)
}

// find returns the way index holding paddr's line, or -1. It inlines into
// every access.
func (c *Cache) find(paddr uint32) int {
	if c.tags != nil { // else never filled
		want := LineAddr(paddr) | tagValid
		base := c.setBase(paddr)
		for i, t := range c.tags[base : base+int(c.ways)] {
			if t&^tagState == want {
				return base + i
			}
		}
	}
	return -1
}

// Load copies len(dst) bytes at paddr from the cache if the line is present,
// reporting a hit. The access must not cross a line boundary.
func (c *Cache) Load(paddr uint32, dst []byte) bool {
	checkWithinLine(paddr, len(dst))
	c.tick++
	if i := c.find(paddr); i >= 0 {
		ch := c.chunks[i>>chunkShift]
		ch.lastUse[i&chunkMask] = c.tick
		o := paddr & lineMask
		CopySmall(dst, ch.data[i&chunkMask][o:o+uint32(len(dst))])
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Fill installs a whole line (fetched from the next level) and returns the
// displaced victim, if any. A write-through level never produces dirty
// victims; a write-back level's dirty victim must be written to the next
// level by the caller.
func (c *Cache) Fill(paddr uint32, data []byte, mpbt bool) (out Victim) {
	if len(data) != LineSize {
		panic(fmt.Sprintf("cache %s: fill with %d bytes", c.name, len(data)))
	}
	if c.tags == nil {
		n := int(c.sets * c.ways)
		c.tags = make([]uint32, n)
		c.chunks = make([]*chunk, (n+chunkMask)>>chunkShift)
	}
	tag := LineAddr(paddr)
	c.tick++
	base := c.setBase(paddr)
	tags := c.tags[base : base+int(c.ways)]
	// Only a valid way's stamp is read: a free way's chunk may not exist.
	v, free, stamp := 0, tags[0]&tagValid == 0, ^uint64(0)
	for i, t := range tags {
		if t&^tagState == tag|tagValid {
			v = i // refill in place, even past a free way: no duplicates
			break
		}
		if !free {
			if t&tagValid == 0 {
				v, free = i, true // the first free way
			} else if s := c.lastUse(base + i); s < stamp {
				v, stamp = i, s // else the least recently used
			}
		}
	}
	v += base
	ch := c.chunks[v>>chunkShift]
	if ch == nil {
		ch = new(chunk)
		c.chunks[v>>chunkShift] = ch
	}
	old := c.tags[v]
	if old&(tagValid|tagMPBT) == tagValid|tagMPBT {
		c.mpbtLines-- // evicted or refilled in place
	}
	if old&tagValid != 0 && old&^lineMask != tag {
		c.stats.Evictions++
		out.Valid, out.LineAddr = true, old&^lineMask
		if old&tagDirty != 0 {
			out.Dirty, out.Data = true, ch.data[v&chunkMask]
		}
	}
	c.stats.Fills++
	c.tags[v] = tag | tagValid
	if mpbt {
		c.tags[v] |= tagMPBT
		c.mpbtLines++
	}
	ch.lastUse[v&chunkMask] = c.tick
	ch.data[v&chunkMask] = [LineSize]byte(data)
	return out
}

// lastUse returns valid way i's LRU stamp.
func (c *Cache) lastUse(i int) uint64 { return c.chunks[i>>chunkShift].lastUse[i&chunkMask] }

// WriteThrough updates the cached copy if (and only if) the line is present
// — the no-write-allocate policy — and reports whether it was. The caller
// always also writes memory; this call only keeps a present line coherent
// with the core's own store stream.
func (c *Cache) WriteThrough(paddr uint32, src []byte) bool {
	return c.write(paddr, src, 0)
}

// WriteUpdate applies a store to a present line under write-back policy,
// marking it dirty, and reports the hit. On a miss it does nothing (no
// write allocate — the P54C cannot update cache entries on a write miss);
// the caller forwards the store to the next level instead.
func (c *Cache) WriteUpdate(paddr uint32, src []byte) bool {
	return c.write(paddr, src, tagDirty)
}

// write is WriteThrough (mark 0) and WriteUpdate (mark tagDirty).
func (c *Cache) write(paddr uint32, src []byte, mark uint32) bool {
	checkWithinLine(paddr, len(src))
	c.tick++
	if i := c.find(paddr); i >= 0 {
		ch := c.chunks[i>>chunkShift]
		ch.lastUse[i&chunkMask] = c.tick
		c.tags[i] |= mark
		CopySmall(ch.data[i&chunkMask][paddr&lineMask:], src)
		c.stats.WriteHits++
		return true
	}
	c.stats.WriteMisses++
	return false
}

// InvalidateMPBT drops every MPBT-tagged line: the CL1INVMB instruction,
// the one invalidation the SCC's software has. The walk ends at the last
// valid MPBT line, so a cache holding none costs nothing.
func (c *Cache) InvalidateMPBT() {
	for i := 0; c.mpbtLines != 0; i++ {
		if t := c.tags[i]; t&(tagValid|tagMPBT) == tagValid|tagMPBT {
			c.tags[i] = t &^ tagValid
			c.stats.Invalidates++
			c.mpbtLines--
		}
	}
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

// panicCrossesLine must not inline: inlined, its formatting pushes
// checkWithinLine over the inlining budget.
//
//go:noinline
func panicCrossesLine(paddr uint32, n int) {
	panic(fmt.Sprintf("cache: access [%#x,+%d) crosses a line boundary", paddr, n))
}
