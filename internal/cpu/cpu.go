// Package cpu models one SCC core: a P54C-class processor with a private
// page table, a write-through L1, an (off-chip, bypassable) L2, the SCC's
// write-combine buffer and CL1INVMB instruction, and an interrupt line.
//
// A Core is driven by a sim.Proc: the kernel's entry function runs on the
// core's goroutine and calls the Core's Load/Store/Cycles methods, which
// charge simulated time and move real bytes through the cache models. All
// protocol-visible side effects (interrupt posts, synchronous physical
// accesses) are totally ordered through Proc.Sync.
package cpu

import (
	"encoding/binary"
	"fmt"
	"math"

	"metalsvm/internal/cache"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/profile"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// IRQ identifies an interrupt source.
type IRQ int

const (
	// IRQTimer is the local APIC timer tick.
	IRQTimer IRQ = iota
	// IRQIPI is an inter-processor interrupt routed through the GIC.
	IRQIPI
	irqCount
)

func (q IRQ) String() string {
	switch q {
	case IRQTimer:
		return "timer"
	case IRQIPI:
		return "ipi"
	default:
		return fmt.Sprintf("irq(%d)", int(q))
	}
}

// MemoryBus is the chip-level memory system the core issues transactions
// to. Implementations return the latency of each transaction for the
// issuing core (hop counts to the serving controller differ per core).
type MemoryBus interface {
	// FetchLine reads the 32-byte line at lineAddr into dst.
	FetchLine(core int, lineAddr uint32, dst []byte) sim.Duration
	// WriteMem performs one write-through store transaction (data must not
	// cross a line boundary).
	WriteMem(core int, paddr uint32, data []byte) sim.Duration
	// WriteMaskedLine drains one write-combine buffer line as a single
	// transaction.
	WriteMaskedLine(core int, f cache.Flushed) sim.Duration
}

// FaultHandler services a page fault. It runs on the core's goroutine (so
// it may communicate and block) and must establish a translation that
// permits the access — the access is retried afterwards. vaddr is the
// faulting address, write the access type, entry the current PTE (zero
// value if the page was never mapped).
type FaultHandler func(c *Core, vaddr uint32, write bool, entry pgtable.Entry)

// IRQHandler services a posted interrupt on the core's goroutine.
type IRQHandler func(c *Core, irq IRQ)

// Config describes one core's microarchitecture.
type Config struct {
	// Clock is the core clock (SCC in the paper: 533 MHz).
	Clock sim.Clock
	// L1Size/L1Ways: the SCC core's data cache (16 KiB, 4-way, twice the
	// classic P54C's 8 KiB, 2-way).
	L1Size, L1Ways int
	// L2Size/L2Ways: the board-level L2 (256 KiB, 4-way). Zero disables L2.
	L2Size, L2Ways int
	// L1HitCycles / L2HitCycles are load-to-use latencies in core cycles.
	L1HitCycles, L2HitCycles uint64
	// StoreCycles is the cost of posting a store into the store path
	// (the memory transaction itself is charged separately).
	StoreCycles uint64
	// TrapCycles is the cost of entering+leaving the page-fault trap.
	TrapCycles uint64
	// IRQEntryCycles is the interrupt entry+exit overhead.
	IRQEntryCycles uint64
	// DisableWCB turns the write-combine buffer off: MPBT stores go to
	// memory one transaction each, as on a stock P54C. Used by the
	// ablation study of the paper's claim that write combining is what
	// makes the SVM write path fast.
	DisableWCB bool
	// Quantum bounds local-clock lookahead, which in turn bounds interrupt
	// delivery latency for a busy core.
	Quantum sim.Duration
}

// DefaultConfig returns the SCC core's parameters at 533 MHz: the SCC's
// P54C derivative doubles the classic P54C caches to 16 KiB 4-way L1
// (write-through) and couples a 256 KiB write-back L2 that does not
// allocate on write misses.
func DefaultConfig() Config {
	clk := sim.MHz(533)
	return Config{
		Clock:          clk,
		L1Size:         16 << 10,
		L1Ways:         4,
		L2Size:         256 << 10,
		L2Ways:         4,
		L1HitCycles:    1,
		L2HitCycles:    18,
		StoreCycles:    1,
		TrapCycles:     400,
		IRQEntryCycles: 300,
		Quantum:        clk.Cycles(2000), // ~3.75 us interrupt latency bound
	}
}

// Stats counts core-level events.
type Stats struct {
	Loads     uint64
	Stores    uint64
	Faults    uint64
	IRQs      uint64
	WCBROBs   uint64 // reads satisfied only after a WCB self-flush
	TLBHits   uint64
	TLBMisses uint64
}

// MeshShareSource is implemented by memory buses that can report the
// mesh-traversal share of the latest transaction they served for a core
// (scc.Chip). The profiler uses it to split memory stalls into cache-stall
// and mesh-transit time.
type MeshShareSource interface {
	LastMeshShare(core int) sim.Duration
}

// Core is one simulated processor.
type Core struct {
	id   int
	cfg  Config
	proc *sim.Proc
	bus  MemoryBus

	// l1Hit, l2Hit and store are cfg's L1HitCycles, L2HitCycles and
	// StoreCycles as durations: the load-hit and store paths advance the
	// proc by them directly, where a call to Cycles would not inline.
	l1Hit, l2Hit, store sim.Duration

	// Table is the core's private page table. The kernel and the SVM
	// system manipulate it directly (they are the kernel).
	Table *pgtable.Table

	l1  *cache.Cache
	l2  *cache.Cache
	wcb *cache.WCB

	// tlb memoizes translations; see tlb.go for the invalidation contract.
	tlb tlb
	// lineBuf is the scratch line for load fills and storeBuf the scratch
	// for write-through transactions. Reusing them keeps the buffers off
	// the heap: passing a stack array through the MemoryBus interface would
	// force an allocation per miss/store. Neither is live across a
	// potentially faulting operation, so protocol code running in a fault
	// handler cannot clobber an in-flight access.
	lineBuf  [cache.LineSize]byte
	storeBuf [cache.LineSize]byte

	faultHandler FaultHandler
	irqHandler   IRQHandler

	// events is the chip's event stream (nil for a core built without one):
	// every load and store reports itself once translation has succeeded.
	events *trace.Stream

	// prof, when set, receives bucket transitions; meshBus is the bus's
	// optional mesh-share view used to split memory stalls (see SetProfiler).
	prof    *profile.Profiler
	meshBus MeshShareSource

	pendingIRQ uint32 // bitmask by IRQ
	irqEnabled bool
	inHandler  bool

	stats Stats
}

// New creates a core attached to a memory bus, reporting its accesses and
// page-table changes to events (nil for none). The core must be bound to a
// simulation process with Bind before any of its execution methods run.
func New(id int, cfg Config, bus MemoryBus, events *trace.Stream) *Core {
	c := &Core{
		id:         id,
		cfg:        cfg,
		l1Hit:      cfg.Clock.Cycles(cfg.L1HitCycles),
		l2Hit:      cfg.Clock.Cycles(cfg.L2HitCycles),
		store:      cfg.Clock.Cycles(cfg.StoreCycles),
		bus:        bus,
		events:     events,
		Table:      pgtable.New(),
		tlb:        newTLB(),
		l1:         cache.New(fmt.Sprintf("core%d.l1", id), cfg.L1Size, cfg.L1Ways),
		wcb:        cache.NewWCB(),
		irqEnabled: true,
	}
	if cfg.L2Size > 0 {
		c.l2 = cache.New(fmt.Sprintf("core%d.l2", id), cfg.L2Size, cfg.L2Ways)
	}
	c.Table.Observe(events, id, c.Now)
	return c
}

// Bind attaches the simulation process that executes this core's software.
// The proc's body typically captures the core, which is why construction
// and binding are separate steps.
func (c *Core) Bind(proc *sim.Proc) {
	c.proc = proc
	proc.SetQuantum(c.cfg.Quantum)
	proc.SetSyncHook(c.deliverIRQs, c.irqIdle)
	proc.SetPreWaitHook(c.deliverBeforeWait)
}

// irqIdle reports that deliverIRQs would deliver nothing now.
func (c *Core) irqIdle() bool {
	return c.pendingIRQ == 0 || c.inHandler || !c.irqEnabled || c.irqHandler == nil
}

// deliverBeforeWait runs pending interrupt handlers instead of letting the
// core park with work outstanding (an IRQ posted while the core was briefly
// running would otherwise be lost until the next unrelated wake).
func (c *Core) deliverBeforeWait() bool {
	if c.irqIdle() {
		return false
	}
	c.deliverIRQs()
	return true
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Proc returns the core's simulation process.
func (c *Core) Proc() *sim.Proc { return c.proc }

// L1 returns the L1 cache model (stats, tests).
func (c *Core) L1() *cache.Cache { return c.l1 }

// L2 returns the L2 cache model, or nil when disabled.
func (c *Core) L2() *cache.Cache { return c.l2 }

// WCB returns the write-combine buffer model.
func (c *Core) WCB() *cache.WCB { return c.wcb }

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// SetFaultHandler installs the page-fault handler (the SVM system).
func (c *Core) SetFaultHandler(h FaultHandler) { c.faultHandler = h }

// SetIRQHandler installs the interrupt handler (the kernel).
func (c *Core) SetIRQHandler(h IRQHandler) { c.irqHandler = h }

// SetProfiler installs the cycle-attribution profiler; nil disables it. It
// charges no simulated time. When the memory bus implements
// MeshShareSource, memory stalls are split into cache-stall and
// mesh-transit buckets; otherwise the whole stall counts as cache-stall.
func (c *Core) SetProfiler(p *profile.Profiler) {
	c.prof = p
	c.meshBus, _ = c.bus.(MeshShareSource)
}

// Cycles charges n core cycles of compute time.
func (c *Core) Cycles(n uint64) { c.proc.Advance(c.cfg.Clock.Cycles(n)) }

// Now returns the core-local simulated time.
func (c *Core) Now() sim.Time { return c.proc.LocalTime() }

// Sync orders the core against global simulated time (see sim.Proc.Sync).
func (c *Core) Sync() { c.proc.Sync() }

// --- Interrupts ---------------------------------------------------------

// PostInterrupt marks irq pending and, when the core is parked, wakes it.
// Callable from engine events and other cores; the handler itself always
// runs on this core's goroutine at a sync point.
func (c *Core) PostInterrupt(irq IRQ) {
	c.pendingIRQ |= 1 << uint(irq)
	c.proc.Wake(c.proc.Engine().Now())
}

// InterruptsEnabled reports whether delivery is enabled.
func (c *Core) InterruptsEnabled() bool { return c.irqEnabled }

// SetInterruptsEnabled toggles delivery (cli/sti). Re-enabling delivers
// anything that became pending meanwhile at the next sync point.
func (c *Core) SetInterruptsEnabled(on bool) { c.irqEnabled = on }

// deliverIRQs is the proc sync hook: it runs pending handlers inline.
func (c *Core) deliverIRQs() {
	if c.irqIdle() {
		return
	}
	for c.pendingIRQ != 0 {
		var irq IRQ
		for q := IRQ(0); q < irqCount; q++ {
			if c.pendingIRQ&(1<<uint(q)) != 0 {
				irq = q
				break
			}
		}
		c.pendingIRQ &^= 1 << uint(irq)
		c.inHandler = true
		c.stats.IRQs++
		c.Cycles(c.cfg.IRQEntryCycles)
		c.irqHandler(c, irq)
		c.inHandler = false
	}
}

// --- Special instructions -----------------------------------------------

// CL1INVMB invalidates all MPBT-tagged L1 lines (one instruction: cheap).
func (c *Core) CL1INVMB() {
	c.l1.InvalidateMPBT()
	c.Cycles(1)
}

// FlushWCB drains the write-combine buffer to memory, making this core's
// combined stores visible to the other cores.
func (c *Core) FlushWCB() {
	if f, ok := c.wcb.Flush(); ok {
		c.memStall(c.bus.WriteMaskedLine(c.id, f))
	}
}

// --- Virtual memory access ----------------------------------------------

// translate returns a usable entry for the access, invoking the fault
// handler until the translation permits it.
func (c *Core) translate(vaddr uint32, write bool) pgtable.Entry {
	if e, ok := c.tlb.lookup(c.Table, vaddr); ok &&
		(!write || e.Flags.Has(pgtable.Writable)) {
		c.stats.TLBHits++
		return e
	}
	c.stats.TLBMisses++
	for tries := 0; ; tries++ {
		e, ok := c.Table.Lookup(vaddr)
		if ok && e.Flags.Has(pgtable.Present) && (!write || e.Flags.Has(pgtable.Writable)) {
			c.tlb.insert(c.Table, vaddr, e)
			return e
		}
		if c.faultHandler == nil {
			panic(fmt.Sprintf("core %d: unhandled page fault at %#x (write=%v, entry=%v)",
				c.id, vaddr, write, e.Flags))
		}
		if tries > 64 {
			panic(fmt.Sprintf("core %d: page fault loop at %#x", c.id, vaddr))
		}
		c.stats.Faults++
		c.prof.Enter(c.id, profile.FaultHandling, c.proc.LocalTime())
		c.Cycles(c.cfg.TrapCycles)
		c.faultHandler(c, vaddr, write, e)
		c.prof.Exit(c.id, c.proc.LocalTime())
	}
}

// memStall advances the core by a memory transaction's latency and reports
// the stall to the profiler, splitting off the mesh-traversal share when
// the bus exposes it.
func (c *Core) memStall(d sim.Duration) {
	c.proc.Advance(d)
	if c.prof == nil {
		return
	}
	var mesh sim.Duration
	if c.meshBus != nil {
		mesh = c.meshBus.LastMeshShare(c.id)
	}
	c.prof.Stall(c.id, d, mesh, c.proc.LocalTime())
}

// Load reads len(dst) bytes of virtual memory, charging the modeled
// latency. Accesses may cross line and page boundaries; they are split.
func (c *Core) Load(vaddr uint32, dst []byte) {
	for len(dst) > 0 {
		n := chunkLen(vaddr, len(dst))
		c.loadChunk(vaddr, dst[:n])
		vaddr += uint32(n)
		dst = dst[n:]
	}
}

func (c *Core) loadChunk(vaddr uint32, dst []byte) {
	c.stats.Loads++
	e := c.translate(vaddr, false)
	c.events.Emit(c.proc.LocalTime(), c.id, trace.KindLoad, uint64(vaddr), uint64(len(dst)))
	paddr := e.PhysAddr(vaddr)
	mpbt := e.Flags.Has(pgtable.MPBT)

	// A load that overlaps the WCB must drain it first or the core would
	// miss its own freshest stores (the line is not in L1 on a write miss).
	if mpbt && c.wcb.CoversRead(paddr, len(dst)) {
		c.stats.WCBROBs++
		c.FlushWCB()
	}

	if c.l1.Load(paddr, dst) {
		c.proc.Advance(c.l1Hit)
		return
	}
	line := &c.lineBuf
	la := cache.LineAddr(paddr)
	if !mpbt && c.l2 != nil {
		if c.l2.Load(la, line[:]) {
			c.proc.Advance(c.l2Hit)
			c.l1.Fill(paddr, line[:], false)
			cache.CopySmall(dst, line[paddr-la:paddr-la+uint32(len(dst))])
			return
		}
		// Miss in both: fetch from memory, fill both levels (read
		// allocate). A dirty victim displaced from the write-back L2 owes
		// one write-back transaction.
		c.memStall(c.bus.FetchLine(c.id, la, line[:]))
		if v := c.l2.Fill(la, line[:], false); v.Valid && v.Dirty {
			c.memStall(c.bus.WriteMaskedLine(c.id, cache.Flushed{
				LineAddr: v.LineAddr, Mask: 0xffffffff, Data: v.Data,
			}))
		}
		c.l1.Fill(paddr, line[:], false)
		cache.CopySmall(dst, line[paddr-la:paddr-la+uint32(len(dst))])
		return
	}
	// MPBT (or no L2): L1 <- memory directly; the line is tagged MPBT so
	// CL1INVMB can drop it selectively.
	c.memStall(c.bus.FetchLine(c.id, la, line[:]))
	c.l1.Fill(paddr, line[:], mpbt)
	cache.CopySmall(dst, line[paddr-la:paddr-la+uint32(len(dst))])
}

// Store writes src to virtual memory through the write-through hierarchy.
func (c *Core) Store(vaddr uint32, src []byte) {
	for len(src) > 0 {
		n := chunkLen(vaddr, len(src))
		c.storeChunk(vaddr, src[:n])
		vaddr += uint32(n)
		src = src[n:]
	}
}

func (c *Core) storeChunk(vaddr uint32, src []byte) {
	c.stats.Stores++
	e := c.translate(vaddr, true)
	c.events.Emit(c.proc.LocalTime(), c.id, trace.KindStore, uint64(vaddr), uint64(len(src)))
	paddr := e.PhysAddr(vaddr)
	c.proc.Advance(c.store)

	// Keep the core's own cached copies in step (write-through updates,
	// never allocates).
	c.l1.WriteThrough(paddr, src)

	if e.Flags.Has(pgtable.MPBT) {
		if c.cfg.DisableWCB {
			// Ablation: byte-granular write-through, one transaction per
			// store (the paper's "like accesses to uncachable memory").
			c.memStall(c.bus.WriteMem(c.id, paddr, c.stage(src)))
			return
		}
		// Combine in the WCB; memory traffic happens on drains only.
		if drain, ok := c.wcb.Write(paddr, src); ok {
			c.memStall(c.bus.WriteMaskedLine(c.id, drain))
		}
		return
	}
	if c.l2 != nil && c.l2.WriteUpdate(paddr, src) {
		// The write-back L2 absorbs the store (it can only do so on a hit:
		// no write allocate). This is what makes the baseline's writes
		// cheap once its working set stays L2-resident — the superlinear
		// regime of Figure 9.
		c.proc.Advance(c.l2Hit)
		return
	}
	// Miss everywhere: word-granular write-through to memory, one
	// transaction per store.
	c.memStall(c.bus.WriteMem(c.id, paddr, c.stage(src)))
}

// stage copies store data into the core's scratch buffer before it crosses
// the MemoryBus interface, so callers' stack buffers do not escape.
func (c *Core) stage(src []byte) []byte {
	n := copy(c.storeBuf[:], src)
	return c.storeBuf[:n]
}

// chunkLen bounds an access at the next line boundary.
func chunkLen(vaddr uint32, n int) int {
	room := int(cache.LineSize - (vaddr & (cache.LineSize - 1)))
	if n < room {
		return n
	}
	return room
}

// --- Typed helpers -------------------------------------------------------

// Load64 reads a little-endian uint64.
func (c *Core) Load64(vaddr uint32) uint64 {
	var b [8]byte
	c.Load(vaddr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Store64 writes a little-endian uint64.
func (c *Core) Store64(vaddr uint32, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.Store(vaddr, b[:])
}

// Load32 reads a little-endian uint32.
func (c *Core) Load32(vaddr uint32) uint32 {
	var b [4]byte
	c.Load(vaddr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Store32 writes a little-endian uint32.
func (c *Core) Store32(vaddr uint32, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.Store(vaddr, b[:])
}

// LoadF64 reads a float64.
func (c *Core) LoadF64(vaddr uint32) float64 { return math.Float64frombits(c.Load64(vaddr)) }

// StoreF64 writes a float64.
func (c *Core) StoreF64(vaddr uint32, v float64) { c.Store64(vaddr, math.Float64bits(v)) }
