// Package svm implements MetalSVM's shared virtual memory system (Section 6
// of the paper): software-managed cache coherence for the SCC's non-coherent
// cores.
//
// Two consistency models are provided:
//
//   - Strong: at any time one core owns a page and is the only one allowed
//     to read or write it. Ownership is recorded in an owner vector in
//     uncached off-die memory. An access without permission faults; the
//     faulting kernel mails the current owner, which revokes its own
//     mapping, flushes its write-combine buffer, invalidates its MPBT
//     cache lines via CL1INVMB, updates the owner vector and mails an
//     acknowledgement back.
//
//   - LazyRelease: every core may map every shared page after first touch.
//     Consistency is enforced only at synchronization points: acquiring a
//     lock (or leaving a barrier) invalidates all SVM-cached lines, and
//     releasing flushes the write-combine buffer. This is the paper's
//     near-zero-overhead model for lock-disciplined programs.
//
// Placement uses affinity-on-first-touch (Section 6.3): page frames are
// allocated from the memory controller nearest to the first core that
// touches the page. The frame directory ("scratchpad") holds a 16-bit frame
// number per shared page and lives distributed across the cores' on-die
// MPBs, each entry protected by the SCC's test-and-set registers. The
// 16-bit representation is what limits the shared space to 64 Ki pages
// (256 MiB), as the paper notes; an off-die directory variant is provided
// for the ablation study.
package svm

import (
	"fmt"
	"io"
	"sort"

	"metalsvm/internal/kernel"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/phys"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// Model selects the consistency model.
type Model int

const (
	// Strong is the single-owner model (Section 6.1).
	Strong Model = iota
	// LazyRelease is lock-scoped consistency (Section 6.2).
	LazyRelease
)

func (m Model) String() string {
	if m == Strong {
		return "strong"
	}
	return "lazy-release"
}

// Mail types used by the ownership protocol.
const (
	msgOwnerReq   = kernel.MsgUser + 0 // payload: page index, requester
	msgOwnerAck   = kernel.MsgUser + 1 // payload: page index, epoch
	msgOwnerRetry = kernel.MsgUser + 2 // payload: page index[, "not mine" flag]
)

// Config holds the SVM system's parameters, including the kernel-path cost
// calibration (core cycles). The defaults are calibrated so the synthetic
// benchmark of Section 7.2.1 lands in the region of the paper's Table 1.
type Config struct {
	Model Model
	// AllocPageCycles: per-page bookkeeping of the collective virtual
	// reservation (region record, table growth). Paper: 741 us / 4 MiB.
	AllocPageCycles uint64
	// FrameAllocCycles: kernel physical allocator bookkeeping per frame
	// plus the word-granular page scrub the first-touch path performs.
	// Paper: 112.3 us per frame including the 4 KiB zeroing.
	FrameAllocCycles uint64
	// MapCycles: installing a PTE and updating kernel VM structures.
	MapCycles uint64
	// OwnershipServeCycles: owner-side handler work besides the explicit
	// flush/invalidate/vector operations.
	OwnershipServeCycles uint64
	// ScratchpadOffDie moves the first-touch directory from the MPBs to
	// uncached off-die memory (the trade-off discussed in Section 6.3:
	// lifts the 256 MiB limit, costs DDR latency per lookup).
	ScratchpadOffDie bool
	// PageLo/PageHi restrict the system to the shared-page index range
	// [PageLo, PageHi), allowing several coherency domains — independent
	// clusters with independent SVM systems — to coexist on one chip
	// (the partitioning goal from the paper's introduction). Both zero
	// means the whole shared region.
	PageLo, PageHi uint32
	// Workers names the cluster members that participate in SVM collective
	// operations (Alloc, Barrier, Free, ...). Nil means every member. The
	// replicated directory sets this to exclude its manager cores, which
	// run the directory service but no application code.
	Workers []int
}

// DefaultConfig returns the calibrated defaults for the given model.
func DefaultConfig(m Model) Config {
	return Config{
		Model:                m,
		AllocPageCycles:      385,
		FrameAllocCycles:     51_920,
		MapCycles:            748,
		OwnershipServeCycles: 2_200,
	}
}

// region is one collective allocation.
type region struct {
	base  uint32 // virtual base
	pages uint32
	freed bool
}

// System is the cluster-wide SVM instance. Create it after the cluster and
// attach every member kernel before it calls any SVM operation.
type System struct {
	cl   *kernel.Cluster
	chip *scc.Chip
	cfg  Config

	alloc     *phys.FrameAllocator
	ownerBase uint32 // paddr of the owner vector (4 bytes per shared page)
	// dataFrames is how many frames are left for data once New has
	// reserved the SVM's own metadata; live regions never exceed it.
	dataFrames uint32

	// offDieScratchBase is the directory base when ScratchpadOffDie is set.
	offDieScratchBase uint32

	// nextPage is the virtual allocation cursor (in shared pages).
	nextPage uint32
	allocs   []region

	readonly []region

	// nextTouch holds the affinity-on-next-touch migration state (§8
	// future work; see nexttouch.go).
	nextTouch nextTouchState

	// lockBase is the paddr of the SVM lock words; lockSigs wake parked
	// contenders on release.
	lockBase uint32
	lockSigs map[int]*sim.Signal

	handles map[int]*Handle

	// workers are the collective participants (see Config.Workers); dir is
	// the ownership directory, legacy single-copy by default.
	workers []int
	dir     OwnerDirectory

	prof *profile.Profiler
}

// SetProfiler installs the cycle-attribution profiler; nil disables it.
// Owner-side request serving counts as fault handling; Lock/Unlock and
// Barrier report lock-wait and barrier-wait time.
func (s *System) SetProfiler(p *profile.Profiler) { s.prof = p }

// LockCount is the number of distinct SVM lock words.
const LockCount = 256

// lockWord maps a lock id, negative ones included, to its lock word. Ids
// that share a word are one lock, so the word's address, its release signal,
// its guarding test-and-set register and the lock events all derive from
// this index, never from the raw id.
func lockWord(id int) int { return ((id % LockCount) + LockCount) % LockCount }

// lockAddr returns the address of a lock word.
func (s *System) lockAddr(word int) uint32 { return s.lockBase + uint32(word)*4 }

// lockReg returns the test-and-set register held while a lock word is
// inspected and flipped.
func (s *System) lockReg(word int) int { return word % s.chip.Cores() }

// lockSig returns (creating on demand) the release signal of a lock word.
func (s *System) lockSig(word int) *sim.Signal {
	sig, ok := s.lockSigs[word]
	if !ok {
		sig = sim.NewSignal(s.chip.Engine())
		s.lockSigs[word] = sig
	}
	return sig
}

// New creates the SVM system over a cluster. It reserves shared frames for
// the owner vector (and the off-die directory if configured).
func New(cl *kernel.Cluster, cfg Config) (*System, error) {
	chip := cl.Chip()
	layout := chip.Layout()
	if cfg.PageLo == 0 && cfg.PageHi == 0 {
		cfg.PageHi = layout.SharedFrames()
	}
	if cfg.PageLo >= cfg.PageHi || cfg.PageHi > layout.SharedFrames() {
		return nil, fmt.Errorf("svm: invalid page range [%d,%d)", cfg.PageLo, cfg.PageHi)
	}
	s := &System{
		cl:      cl,
		chip:    chip,
		cfg:     cfg,
		alloc:   phys.NewFrameAllocatorRange(layout, cfg.PageLo, cfg.PageHi),
		handles: make(map[int]*Handle),
	}
	s.dir = &legacyDirectory{s: s}
	if len(cfg.Workers) != 0 {
		s.workers = append([]int(nil), cfg.Workers...)
	} else {
		s.workers = append([]int(nil), cl.Members()...)
	}
	s.nextPage = cfg.PageLo
	pages := layout.SharedFrames()
	reserve := func(bytes uint32, what string) (uint32, error) {
		frames := (bytes + layout.FrameSize() - 1) / layout.FrameSize()
		var base uint32
		for i := uint32(0); i < frames; i++ {
			sf, ok := s.alloc.Alloc(0)
			if !ok {
				return 0, fmt.Errorf("svm: shared memory too small for %s", what)
			}
			if i == 0 {
				base = layout.SharedFrameAddr(sf)
			} else if layout.SharedFrameAddr(sf) != base+i*layout.FrameSize() {
				return 0, fmt.Errorf("svm: non-contiguous reservation for %s", what)
			}
		}
		return base, nil
	}
	var err error
	if s.ownerBase, err = reserve(pages*4, "owner vector"); err != nil {
		return nil, err
	}
	if s.nextTouch.tableBase, err = reserve(pages*4, "migration table"); err != nil {
		return nil, err
	}
	if s.lockBase, err = reserve(LockCount*4, "lock words"); err != nil {
		return nil, err
	}
	s.lockSigs = make(map[int]*sim.Signal)
	if cfg.ScratchpadOffDie {
		if s.offDieScratchBase, err = reserve(pages*4, "off-die scratchpad"); err != nil {
			return nil, err
		}
	}
	s.dataFrames = uint32(s.alloc.FreeFrames())
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Workers returns the SVM collective participants (see Config.Workers).
func (s *System) Workers() []int { return s.workers }

// SetDirectory replaces the ownership directory. Must be called before any
// kernel attaches; the replicated directory installs itself through this.
func (s *System) SetDirectory(d OwnerDirectory) {
	if len(s.handles) != 0 {
		panic("svm: SetDirectory after Attach")
	}
	s.dir = d
}

// AllocFrame allocates a shared frame near the given core's memory
// controller, on behalf of an external directory implementation.
func (s *System) AllocFrame(core int) (uint32, bool) {
	return s.alloc.Alloc(s.chip.Layout().ControllerOfCore(core))
}

// FreeFrame returns a shared frame to the allocator (external directories).
func (s *System) FreeFrame(sf uint32) { s.alloc.Free(sf) }

// FreeFrames returns how many shared frames are free for data.
func (s *System) FreeFrames() int { return s.alloc.FreeFrames() }

// Handle returns the attached handle for a core (nil if never attached).
func (s *System) Handle(core int) *Handle { return s.handles[core] }

// Cluster returns the owning cluster.
func (s *System) Cluster() *kernel.Cluster { return s.cl }

// pageIndex converts a shared virtual address to its page index.
func (s *System) pageIndex(vaddr uint32) uint32 {
	if vaddr < scc.VirtSharedBase {
		panic(fmt.Sprintf("svm: %#x below the shared region", vaddr))
	}
	idx := (vaddr - scc.VirtSharedBase) >> pgtable.PageShift
	if idx < s.cfg.PageLo || idx >= s.cfg.PageHi {
		panic(fmt.Sprintf("svm: %#x outside this system's shared range [%d,%d)",
			vaddr, s.cfg.PageLo, s.cfg.PageHi))
	}
	return idx
}

// pageVaddr is the inverse of pageIndex.
func pageVaddr(idx uint32) uint32 {
	return scc.VirtSharedBase + idx<<pgtable.PageShift
}

// inAllocated reports whether the page index lies in a collective
// allocation.
func (s *System) inAllocated(idx uint32) bool {
	v := pageVaddr(idx)
	for _, r := range s.allocs {
		if !r.freed && v >= r.base && v < r.base+r.pages<<pgtable.PageShift {
			return true
		}
	}
	return false
}

// findRegion returns the live allocation starting exactly at base.
func (s *System) findRegion(base uint32) *region {
	for i := range s.allocs {
		if r := &s.allocs[i]; !r.freed && r.base == base {
			return r
		}
	}
	return nil
}

// livePages counts the pages of the regions not yet freed.
func (s *System) livePages() uint32 {
	var n uint32
	for _, r := range s.allocs {
		if !r.freed {
			n += r.pages
		}
	}
	return n
}

func (s *System) inReadonly(idx uint32) bool {
	v := pageVaddr(idx)
	for _, r := range s.readonly {
		if v >= r.base && v < r.base+r.pages<<pgtable.PageShift {
			return true
		}
	}
	return false
}

// --- Owner vector (uncached off-die memory) ------------------------------

// ownerAddr returns the owner vector slot for a page.
func (s *System) ownerAddr(idx uint32) uint32 { return s.ownerBase + idx*4 }

// readOwner performs the uncached lookup on behalf of core, returning the
// owning core or -1.
func (s *System) readOwner(core int, idx uint32) int {
	v := s.chip.PhysRead32(core, s.ownerAddr(idx))
	return int(v) - 1
}

// writeOwner updates the vector (uncached write).
func (s *System) writeOwner(core int, idx uint32, owner int) {
	s.chip.PhysWrite32(core, s.ownerAddr(idx), uint32(owner+1))
}

// --- First-touch directory (scratchpad) ----------------------------------

// scratchHome returns the core whose MPB holds page idx's entry. Entries
// round-robin over every core of every chip, so on multi-chip machines the
// directory load and the pages' home chips spread evenly.
func (s *System) scratchHome(idx uint32) int { return int(idx) % s.chip.Cores() }

// HomeChip returns the chip that holds page idx's directory entry — the
// first level of the two-level page home (owning chip, then on-chip owner
// core). The replicated directory routes each page's requests to the
// manager group of its home chip.
func (s *System) HomeChip(idx uint32) int { return s.chip.ChipOfCore(s.scratchHome(idx)) }

// scratchRead returns the frame recorded for the page (0 = unallocated).
func (s *System) scratchRead(core int, idx uint32) uint32 {
	if s.cfg.ScratchpadOffDie {
		return s.chip.PhysRead32(core, s.offDieScratchBase+idx*4)
	}
	home := s.scratchHome(idx)
	off := s.chip.ScratchpadMPBOffset() + int(idx)/s.chip.Cores()*2
	return uint32(s.chip.MPBRead16(core, home, off))
}

// scratchWrite records the frame for the page.
func (s *System) scratchWrite(core int, idx, frame uint32) {
	if s.cfg.ScratchpadOffDie {
		s.chip.PhysWrite32(core, s.offDieScratchBase+idx*4, frame)
		return
	}
	if frame > 0xffff {
		panic(fmt.Sprintf("svm: frame %d exceeds the 16-bit scratchpad representation "+
			"(the paper's 256 MiB limit)", frame))
	}
	home := s.scratchHome(idx)
	off := s.chip.ScratchpadMPBOffset() + int(idx)/s.chip.Cores()*2
	s.chip.MPBWrite16(core, home, off, uint16(frame))
}

// tasSpin acquires a test-and-set register for h (see scc.Chip.TASSpin for
// the backoff).
func (s *System) tasSpin(h *Handle, reg int) {
	h.stats.TASBackoffs += s.chip.TASSpin(h.k.ID(), reg)
}

// scratchLock serializes first-touch racing via the test-and-set register
// of the page's home core.
func (s *System) scratchLock(h *Handle, idx uint32) {
	s.tasSpin(h, s.scratchHome(idx))
}

func (s *System) scratchUnlock(h *Handle, idx uint32) {
	s.chip.TASUnlock(h.k.ID(), s.scratchHome(idx))
}

// DumpDiagnostics writes the SVM system's protocol state — per-handle wait
// state, held test-and-set registers, held lock words, and the owner-vector
// entries of pages currently being acquired — for the watchdog's report.
// Functional reads only; charges no simulated time.
func (s *System) DumpDiagnostics(w io.Writer) {
	fmt.Fprintf(w, "svm (%v):\n", s.cfg.Model)
	var inFault []uint32
	for _, m := range s.cl.Members() {
		h := s.handles[m]
		if h == nil {
			continue
		}
		fmt.Fprintf(w, "  %s\n", h.DebugString())
		h.eachFault(func(idx uint32, r *fault) {
			if r.inFault {
				inFault = append(inFault, idx)
			}
		})
	}
	tas := s.chip.TAS()
	held := ""
	for reg := 0; reg < tas.Count(); reg++ {
		if tas.IsSet(reg) {
			held += fmt.Sprintf(" %d", reg)
		}
	}
	if held != "" {
		fmt.Fprintf(w, "  TAS registers held:%s\n", held)
	}
	mem := s.chip.Mem()
	for id := 0; id < LockCount; id++ {
		if holder := mem.Read32(s.lockAddr(id)); holder != 0 {
			fmt.Fprintf(w, "  lock %d held by core %d\n", id, int(holder)-1)
		}
	}
	sort.Slice(inFault, func(i, j int) bool { return inFault[i] < inFault[j] })
	prev := uint32(0)
	for i, idx := range inFault {
		if i > 0 && idx == prev {
			continue
		}
		prev = idx
		fmt.Fprintf(w, "  page %d owner vector: core %d\n",
			idx, s.dir.PeekOwner(idx))
	}
}
