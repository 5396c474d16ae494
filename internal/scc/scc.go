// Package scc assembles the Single-chip Cloud Computer platform model —
// P54C cores on a 2-D tile mesh, DDR3 memory controllers, per-core
// message-passing buffers (MPBs), test-and-set registers, and the system
// FPGA's global interrupt controller — for any validated topology, from
// the paper's 48-core 6x4 chip (PaperSCC) to multi-chip machines of
// 512–1024 cores coupled by an inter-chip link (MultiChip).
//
// The Chip implements the cores' memory bus (data path, optimistic timing)
// and offers synchronous, globally ordered primitives for the protocol
// layers: MPB reads/writes, test-and-set, uncached physical memory access,
// and IPIs. See internal/sim for the ordering discipline.
//
// A multi-chip machine is modeled as N identical meshes sharing one event
// engine and one flat physical address space: core ids, MPBs, TAS
// registers and interrupt lines are numbered globally (chip*coresPerChip +
// local id), and any transaction whose target lives on another chip
// additionally crosses the interchip fabric through the chip's
// system-interface port (the GIC tile). Single-chip machines never take a
// crossing branch, so their timing and fault-stream behaviour is
// bit-identical to the pre-multi-chip model.
package scc

import (
	"fmt"

	"metalsvm/internal/cache"
	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/gic"
	"metalsvm/internal/interchip"
	"metalsvm/internal/mesh"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/phys"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// VirtSharedBase is the virtual address where every kernel maps the SVM
// region. Private memory is identity-mapped per core below it.
const VirtSharedBase uint32 = 0x8000_0000

// LatencyConfig holds the platform latency constants. Values are in cycles
// of the named clock domain; the defaults approximate the numbers in the
// SCC Programmer's Guide for the paper's 533/800/800 MHz configuration.
type LatencyConfig struct {
	// DDRCoreCycles: core-side fixed cost of a DDR transaction (request
	// issue, miss handling).
	DDRCoreCycles uint64
	// DDRMemCycles: DRAM array access for a line read, in memory-clock
	// cycles.
	DDRMemCycles uint64
	// DDRWriteMemCycles: DRAM-side cost of one write transaction (word or
	// line). Uncombined word stores additionally pay the full mesh round
	// trip core-side (the P54C write path cannot pipeline mesh-remote
	// stores), which is why the paper calls them "like write accesses to
	// an uncachable memory region"; combined line writes are posted.
	DDRWriteMemCycles uint64
	// MPBCoreCycles: fixed cost of an MPB access before mesh traversal.
	MPBCoreCycles uint64
	// TASCoreCycles: fixed cost of a test-and-set register access.
	TASCoreCycles uint64
	// MailCheckCycles: cost of checking one mailbox receive slot (the paper
	// reports 100 core cycles).
	MailCheckCycles uint64
	// IPIRaiseCoreCycles: core-side cost of poking the GIC.
	IPIRaiseCoreCycles uint64
	// GICCycles: FPGA-side processing per IPI, in mesh-clock cycles (the
	// GIC sits behind the system interface).
	GICCycles uint64
}

// DefaultLatencies returns the calibrated defaults.
func DefaultLatencies() LatencyConfig {
	return LatencyConfig{
		DDRCoreCycles:      40,
		DDRMemCycles:       46,
		DDRWriteMemCycles:  46,
		MPBCoreCycles:      15,
		TASCoreCycles:      15,
		MailCheckCycles:    100,
		IPIRaiseCoreCycles: 20,
		GICCycles:          32,
	}
}

// Config describes a whole machine: one chip's geometry and latencies,
// plus how many identical chips the machine couples and the link between
// them. It is the single source of truth for topology — grid size, cores
// per tile, controller placement, GIC capacity and MPB layout all derive
// from it, and Validate checks the whole of it centrally.
type Config struct {
	// Mesh describes one chip's tile grid; a multi-chip machine replicates
	// it per chip.
	Mesh mesh.Config
	Core cpu.Config
	// MemClock is the DDR3 clock (the paper: 800 MHz).
	MemClock sim.Clock
	Lat      LatencyConfig
	// PrivateMemPerCore is each core's private off-die region size.
	PrivateMemPerCore uint32
	// SharedMem is the shared off-die region size (the SVM pool), striped
	// over every chip's memory controllers.
	SharedMem uint32
	// GICPort is the mesh position of the system interface the GIC sits
	// behind; on multi-chip machines the inter-chip link attaches at the
	// same port.
	GICPort mesh.Coord
	// Chips is the number of identical chips coupled by the inter-chip
	// link; 0 and 1 both mean a single chip.
	Chips int
	// Link configures the inter-chip fabric. The zero value selects
	// interchip.DefaultConfig() on multi-chip machines and is ignored on a
	// single chip.
	Link interchip.Config
	// MPBBytes is the per-core message-passing buffer size; 0 selects the
	// SCC's phys.MPBBytesPerCore (8 KiB). Bigger machines need bigger
	// buffers: the mailbox keeps one line-sized slot per possible sender.
	MPBBytes int
}

// DefaultConfig returns the platform as configured in the paper's
// evaluation: 533 MHz cores, 800 MHz mesh and memory.
func DefaultConfig() Config {
	return Config{
		Mesh:              mesh.DefaultConfig(),
		Core:              cpu.DefaultConfig(),
		MemClock:          sim.MHz(800),
		Lat:               DefaultLatencies(),
		PrivateMemPerCore: 16 << 20,
		SharedMem:         64 << 20,
		GICPort:           mesh.Coord{X: 3, Y: 0},
	}
}

// Chip is the assembled platform — despite the name, a multi-chip machine
// when Config.Chips > 1: every chip shares this one structure, with cores,
// MPBs and interrupt lines numbered globally.
type Chip struct {
	cfg    Config
	eng    *sim.Engine
	mesh   *mesh.Mesh // one chip's geometry; all chips are identical
	layout *phys.Layout
	mem    *phys.Mem
	mpb    *phys.MPB
	tas    *phys.TAS
	gic    *gic.Controller
	cores  []*cpu.Core

	// Multi-chip shape: chips is Config.Chips normalized, coresPerChip and
	// mcPerChip the per-die counts, link the inter-chip fabric (nil on a
	// single chip, where no transaction ever crosses).
	chips        int
	coresPerChip int
	mcPerChip    int
	link         *interchip.Fabric
	mpbBytes     int

	// MPB layout: mailbox slots first, then the SVM scratchpad, then the
	// general-purpose (RCCE) area.
	scratchOff int
	rcceOff    int

	// tracer is the chip's event stream: every layer emits through it and
	// every observer (trace ring, race checker, sanitizer) subscribes to it.
	tracer *trace.Stream

	// faults, when set, injects deterministic mesh/IPI/TAS faults into the
	// synchronous primitives; harden selects the recovery protocols in the
	// layers above (mailbox retransmission, retry backoff, rescue scans).
	// A nil injector draws no randomness and charges no time.
	faults *faults.Injector
	harden bool

	// lastMesh remembers, per core, the mesh-traversal share of the latest
	// memory-bus transaction the chip served for it (cpu.MeshShareSource).
	// Safe without locking: only one proc executes at a time per engine, and
	// the issuing core reads its slot right after its own bus call.
	lastMesh []sim.Duration

	// crashed models the system FPGA's core-liveness register file: one
	// sticky bit per core, set when the core crash-halts. Host-side reads
	// via CoreCrashed are free (the kernel caches the register); ProbeAlive
	// is the charged in-simulation read.
	crashed []bool

	meshStats MeshStats

	// ipiFree holds IPI delivery records whose event has fired.
	ipiFree []*ipiDelivery

	// spinners holds each core's TASSpin loop, made on its first spin.
	spinners []*tasSpinner

	// routes holds every (global core, global controller) pair's DDR path,
	// core-major, so a DDR transaction reads its hops instead of redoing
	// the mesh arithmetic.
	routes []route
}

// MeshStats counts mesh transactions by class, with the hop distribution.
// Like cpu.Stats these are always-on host-side counters; they charge no
// simulated time.
type MeshStats struct {
	DDRReads    uint64
	DDRWrites   uint64
	MPBAccesses uint64
	TASAccesses uint64
	IPIs        uint64
	// LinkCrossings counts transactions that crossed the inter-chip link
	// (always zero on a single chip).
	LinkCrossings uint64
	// HopSum is the total hop count over all counted transactions; HopHist
	// buckets them by distance (the last bucket absorbs longer paths).
	HopSum  uint64
	HopHist [16]uint64
}

// MeshStats returns a snapshot of the chip's mesh transaction counters.
func (ch *Chip) MeshStats() MeshStats { return ch.meshStats }

// countHops records one mesh transaction of the given distance.
func (ch *Chip) countHops(hops int) {
	cs := &ch.meshStats
	cs.HopSum += uint64(hops)
	if hops >= len(cs.HopHist) {
		hops = len(cs.HopHist) - 1
	}
	cs.HopHist[hops]++
}

// LastMeshShare implements cpu.MeshShareSource.
func (ch *Chip) LastMeshShare(core int) sim.Duration { return ch.lastMesh[core] }

// Tracer returns the chip's event stream (never nil). Layers emit through
// it; Tracer().SetRing installs a trace ring, Tracer().Subscribe an observer.
func (ch *Chip) Tracer() *trace.Stream { return ch.tracer }

// SetFaultInjector installs a fault injector; nil disables injection.
// Harden, not the injector, selects the recovery protocols.
func (ch *Chip) SetFaultInjector(in *faults.Injector) {
	ch.faults = in
	// The compute-path fault classes (DDR/MPB delay, stalls) draw from
	// per-core streams so their sequences do not depend on cross-core
	// interleaving.
	in.BindCores(len(ch.cores))
}

// FaultInjector returns the installed injector (possibly nil; faults
// methods accept nil receivers).
func (ch *Chip) FaultInjector() *faults.Injector { return ch.faults }

// Harden selects the fault-tolerant protocol variants in the mailbox,
// kernel and SVM layers, with or without an injector. The replicated
// ownership directory requires them even on fault-free runs: its managers
// send from their interrupt handlers, which is deadlock-free only under the
// hardened send/wait paths that drain the sender's own inbox while blocked.
func (ch *Chip) Harden() { ch.harden = true }

// FaultsHardened reports whether the fault-tolerant protocol variants are
// selected. Always false without a Harden call, so plain runs keep the
// plain protocols bit for bit.
func (ch *Chip) FaultsHardened() bool { return ch.harden }

// MarkCrashed latches core id's bit in the liveness register. Idempotent;
// the first latch is counted as an injected crash fault.
func (ch *Chip) MarkCrashed(id int) {
	if ch.crashed[id] {
		return
	}
	ch.crashed[id] = true
	ch.faults.NoteCrash()
}

// CoreCrashed reports whether core id has crash-halted. This is the free
// host-side read of the liveness register (every kernel caches it); it is
// safe to consult on fault-free machines, where it is always false.
func (ch *Chip) CoreCrashed(id int) bool { return ch.crashed[id] }

// ProbeAlive is the charged in-simulation read of target's liveness bit on
// behalf of core: a register access in the system FPGA, priced like a
// test-and-set (register cost plus a mesh round trip to the FPGA tile).
// Probing a core on another chip additionally crosses the link to that
// chip's FPGA.
func (ch *Chip) ProbeAlive(core, target int) bool {
	ch.countHops(ch.gicHops(core))
	ch.meshStats.TASAccesses++
	lat := ch.coreClock().Cycles(ch.cfg.Lat.TASCoreCycles) +
		ch.mesh.RoundTrip(ch.gicHops(core))
	if !ch.SameChip(core, target) {
		lat += ch.link.RoundTrip(8) + ch.linkCross(core)
	}
	ch.syncCharge(core, lat)
	return !ch.crashed[target]
}

// New validates cfg (after resolving zero-value defaults, see Normalized)
// and builds the machine for the engine.
func New(eng *sim.Engine, cfg Config) (*Chip, error) {
	cfg = cfg.Normalized()
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	m, err := mesh.New(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	chips := cfg.Chips
	perChip := m.Cores()
	n := chips * perChip
	mcPerChip := m.ControllerCount()
	// Global numbering: core c lives on chip c/perChip as local core
	// c%perChip; controller ids follow the same scheme, so the shared
	// region stripes over every chip's controllers and each page has a
	// home chip.
	coreMC := make([]int, n)
	for c := 0; c < n; c++ {
		coreMC[c] = (c/perChip)*mcPerChip + m.NearestController(c%perChip)
	}
	layout, err := phys.NewLayout(pgtable.PageSize, cfg.PrivateMemPerCore, cfg.SharedMem,
		chips*mcPerChip, coreMC)
	if err != nil {
		return nil, err
	}
	ch := &Chip{
		cfg:          cfg,
		eng:          eng,
		mesh:         m,
		layout:       layout,
		mem:          phys.NewMem(layout.Total(), pgtable.PageSize),
		mpb:          phys.NewMPB(n, cfg.MPBBytes),
		tas:          phys.NewTAS(n),
		gic:          gic.New(n),
		cores:        make([]*cpu.Core, n),
		chips:        chips,
		coresPerChip: perChip,
		mcPerChip:    mcPerChip,
		mpbBytes:     cfg.MPBBytes,
		lastMesh:     make([]sim.Duration, n),
		crashed:      make([]bool, n),
		spinners:     make([]*tasSpinner, n),
		tracer:       new(trace.Stream),
	}
	if chips > 1 {
		ch.link, err = interchip.New(cfg.Link)
		if err != nil {
			return nil, err
		}
	}
	// MPB layout: n mailbox slots of one line each, then the scratchpad
	// (16-bit entry per shared page, distributed round-robin over cores).
	ch.scratchOff = n * phys.CacheLine
	sharedPages := int(layout.SharedFrames())
	perCore := (sharedPages + n - 1) / n * 2
	ch.rcceOff = ch.scratchOff + perCore
	if ch.rcceOff > cfg.MPBBytes {
		return nil, fmt.Errorf("scc: MPB overcommitted: mailboxes+scratchpad need %d of %d bytes (raise MPBBytes or shrink SharedMem)",
			ch.rcceOff, cfg.MPBBytes)
	}
	mcs := chips * mcPerChip
	ch.routes = make([]route, n*mcs)
	for c := 0; c < n; c++ {
		ch.cores[c] = cpu.New(c, cfg.Core, ch, ch.tracer)
		for mc := 0; mc < mcs; mc++ {
			ch.routes[c*mcs+mc] = ch.routeToController(c, mc)
		}
	}
	return ch, nil
}

// Engine returns the simulation engine.
func (ch *Chip) Engine() *sim.Engine { return ch.eng }

// Mesh returns the mesh model.
func (ch *Chip) Mesh() *mesh.Mesh { return ch.mesh }

// Layout returns the physical memory layout.
func (ch *Chip) Layout() *phys.Layout { return ch.layout }

// Mem returns the off-die memory (tests, diagnostics).
func (ch *Chip) Mem() *phys.Mem { return ch.mem }

// MPB returns the on-die buffers (tests, diagnostics).
func (ch *Chip) MPB() *phys.MPB { return ch.mpb }

// TAS returns the test-and-set registers (tests, diagnostics).
func (ch *Chip) TAS() *phys.TAS { return ch.tas }

// GIC returns the interrupt controller.
func (ch *Chip) GIC() *gic.Controller { return ch.gic }

// Cores returns the machine's total core count, across every chip.
func (ch *Chip) Cores() int { return len(ch.cores) }

// Chips returns the number of chips in the machine (1 for a single chip).
func (ch *Chip) Chips() int { return ch.chips }

// CoresPerChip returns the per-chip core count.
func (ch *Chip) CoresPerChip() int { return ch.coresPerChip }

// ChipOfCore returns the chip a global core id lives on.
func (ch *Chip) ChipOfCore(core int) int { return core / ch.coresPerChip }

// SameChip reports whether two global core ids share a die.
func (ch *Chip) SameChip(a, b int) bool { return ch.ChipOfCore(a) == ch.ChipOfCore(b) }

// Link returns the inter-chip fabric (nil on a single-chip machine).
func (ch *Chip) Link() *interchip.Fabric { return ch.link }

// localCore maps a global core id to its id on its own chip.
func (ch *Chip) localCore(core int) int { return core % ch.coresPerChip }

// Core returns core id's model.
func (ch *Chip) Core(id int) *cpu.Core { return ch.cores[id] }

// Config returns the chip configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// ScratchpadMPBOffset returns where the SVM scratchpad starts in each MPB.
func (ch *Chip) ScratchpadMPBOffset() int { return ch.scratchOff }

// GeneralMPBOffset returns where the general (RCCE) MPB area starts.
func (ch *Chip) GeneralMPBOffset() int { return ch.rcceOff }

// GeneralMPBSize returns the general area's size per core.
func (ch *Chip) GeneralMPBSize() int { return ch.mpbBytes - ch.rcceOff }

// Boot binds core id to a new simulation process running body, with the
// core's private region identity-mapped (virtual address == offset within
// the private region) as cached write-through memory.
func (ch *Chip) Boot(id int, body func(*cpu.Core)) *cpu.Core {
	c := ch.cores[id]
	proc := ch.eng.NewProc(fmt.Sprintf("core%d", id), 0, func(p *sim.Proc) {
		body(c)
	})
	c.Bind(proc)
	base := ch.layout.PrivateBase(id)
	for off := uint32(0); off < ch.cfg.PrivateMemPerCore; off += pgtable.PageSize {
		c.Table.Map(off, (base+off)>>pgtable.PageShift,
			pgtable.Present|pgtable.Writable|pgtable.WriteThrough)
	}
	return c
}

// --- Memory bus (cpu.MemoryBus): optimistic data path --------------------

func (ch *Chip) coreClock() sim.Clock { return ch.cfg.Core.Clock }

// route is one (core, controller) pair's DDR path: its mesh hop count and
// whether it crosses the inter-chip link.
type route struct {
	hops  uint16 // a crossing route is at most two grid diameters, < 2*MaxCores
	cross bool
}

// routeToController computes the DDR path between a global core and a
// global controller id. A crossing travels the core's local mesh to the
// system-interface port, the link, and the remote mesh from that port to
// the controller. New tabulates it for every pair.
func (ch *Chip) routeToController(core, mc int) route {
	mcChip, localMC := mc/ch.mcPerChip, mc%ch.mcPerChip
	if mcChip == ch.ChipOfCore(core) {
		return route{hops: uint16(ch.mesh.HopsToController(ch.localCore(core), localMC))}
	}
	return route{hops: uint16(ch.gicHops(core) + mesh.Hops(ch.cfg.GICPort, ch.mesh.MemoryController(localMC))), cross: true}
}

// hopsToController returns the mesh hop count between a global core and a
// global controller id, and whether the path crosses the inter-chip link.
func (ch *Chip) hopsToController(core, mc int) (hops int, cross bool) {
	r := ch.routes[core*ch.chips*ch.mcPerChip+mc]
	return int(r.hops), r.cross
}

// linkCross records one inter-chip crossing and returns core's
// fault-injected extra delay on the link route (zero without an injector or
// with a zero Link spec).
func (ch *Chip) linkCross(core int) sim.Duration {
	ch.meshStats.LinkCrossings++
	return ch.injectDelay(core, faults.Link)
}

// ddrReadLatency is the full line-read path: core-side cost, mesh round
// trip to the serving controller, DRAM access. A remote-chip controller
// adds a link round trip carrying the line back.
func (ch *Chip) ddrReadLatency(core int, paddr uint32) sim.Duration {
	mc := ch.layout.ControllerOf(paddr)
	hops, cross := ch.hopsToController(core, mc)
	ch.meshStats.DDRReads++
	ch.countHops(hops)
	mesh := ch.mesh.RoundTrip(hops)
	if cross {
		mesh += ch.link.RoundTrip(phys.CacheLine) + ch.linkCross(core)
	}
	ch.lastMesh[core] = mesh
	return ch.coreClock().Cycles(ch.cfg.Lat.DDRCoreCycles) +
		mesh +
		ch.cfg.MemClock.Cycles(ch.cfg.Lat.DDRMemCycles) +
		ch.injectDelay(core, faults.DDR)
}

// ddrWordWriteLatency is an uncombined write-through store: the core stalls
// for the full mesh round trip plus the DRAM write — as expensive as a
// read. This is the paper's "like write accesses to an uncachable memory
// region" cost. A remote-chip controller adds a link round trip.
func (ch *Chip) ddrWordWriteLatency(core int, paddr uint32) sim.Duration {
	mc := ch.layout.ControllerOf(paddr)
	hops, cross := ch.hopsToController(core, mc)
	ch.meshStats.DDRWrites++
	ch.countHops(hops)
	mesh := ch.mesh.RoundTrip(hops)
	if cross {
		mesh += ch.link.RoundTrip(8) + ch.linkCross(core)
	}
	ch.lastMesh[core] = mesh
	return ch.coreClock().Cycles(ch.cfg.Lat.DDRCoreCycles) +
		mesh +
		ch.cfg.MemClock.Cycles(ch.cfg.Lat.DDRWriteMemCycles) +
		ch.injectDelay(core, faults.DDR)
}

// ddrLineWriteLatency is a combined (whole line or masked line) write —
// posted: one-way mesh traversal plus the DRAM burst (one-way across the
// link too when the controller is on another chip).
func (ch *Chip) ddrLineWriteLatency(core int, paddr uint32) sim.Duration {
	mc := ch.layout.ControllerOf(paddr)
	hops, cross := ch.hopsToController(core, mc)
	ch.meshStats.DDRWrites++
	ch.countHops(hops)
	mesh := ch.mesh.OneWay(hops)
	if cross {
		mesh += ch.link.OneWay(phys.CacheLine) + ch.linkCross(core)
	}
	ch.lastMesh[core] = mesh
	return ch.coreClock().Cycles(ch.cfg.Lat.DDRCoreCycles/2) +
		mesh +
		ch.cfg.MemClock.Cycles(ch.cfg.Lat.DDRWriteMemCycles) +
		ch.injectDelay(core, faults.DDR)
}

// FetchLine implements cpu.MemoryBus.
func (ch *Chip) FetchLine(core int, lineAddr uint32, dst []byte) sim.Duration {
	ch.mem.Read(lineAddr, dst)
	return ch.ddrReadLatency(core, lineAddr)
}

// WriteMem implements cpu.MemoryBus.
func (ch *Chip) WriteMem(core int, paddr uint32, data []byte) sim.Duration {
	ch.mem.Write(paddr, data)
	return ch.ddrWordWriteLatency(core, paddr)
}

// WriteMaskedLine implements cpu.MemoryBus: one transaction for a combined
// line, regardless of how many bytes it carries. A full line goes straight
// to memory; only a partial one is read, merged and written back.
func (ch *Chip) WriteMaskedLine(core int, f cache.Flushed) sim.Duration {
	if f.Full() {
		ch.mem.Write(f.LineAddr, f.Data[:])
	} else {
		var line [cache.LineSize]byte
		ch.mem.Read(f.LineAddr, line[:])
		f.Apply(line[:])
		ch.mem.Write(f.LineAddr, line[:])
	}
	return ch.ddrLineWriteLatency(core, f.LineAddr)
}
