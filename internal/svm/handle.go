package svm

import (
	"fmt"

	"metalsvm/internal/cpu"
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/profile"
	"metalsvm/internal/trace"
)

// Stats counts per-kernel SVM events.
type Stats struct {
	Faults        uint64 // page faults taken
	FirstTouches  uint64 // frames this core allocated
	MapExisting   uint64 // pages mapped that another core had allocated
	OwnerRequests uint64 // ownership requests sent
	OwnerServed   uint64 // ownership requests served (as owner)
	Forwards      uint64 // requests forwarded to the current owner
	Retries       uint64 // requests answered with retry (page in fault here)
	Locks         uint64 // SVM lock acquisitions
	LockWaits     uint64 // times a lock was found taken and the core parked
	Barriers      uint64 // SVM barriers entered
	// TASBackoffs and OwnerBackoffs count the hardened protocol's
	// exponential backoff steps on failed test-and-set attempts and retried
	// ownership requests (zero in plain runs, where backoff is constant).
	TASBackoffs   uint64
	OwnerBackoffs uint64
}

// Handle is one kernel's view of the SVM system. All methods run on the
// kernel's goroutine.
type Handle struct {
	sys *System
	k   *kernel.Kernel

	allocSeq int // how many collective allocations this kernel has seen

	// faults holds the fault-protocol state of pages PageLo+32i onwards in
	// faults[i], a block made when one of its pages first needs a record.
	faults []*faultBlock

	stats      Stats
	migrations uint64 // next-touch frame migrations this core made
}

// fault is one page's fault-protocol state on one handle, mutated by the
// mail handlers and the fault path.
type fault struct {
	acks     int32  // ownership acks received
	ackEpoch uint32 // epoch carried by the last ack
	retries  int32  // retry notices received
	// retryNoOwner counts retry notices flagged "not mine" — the recorded
	// owner disowning the page. orphanFrom (owner+1) remembers that the last
	// such notice came from the same recorded owner, which after a re-read
	// of the record means the page was orphaned mid-handoff.
	retryNoOwner int32
	orphanFrom   int32
	// retryRounds drives the hardened exponential backoff while an
	// acquisition keeps being answered with retries.
	retryRounds int32
	inFault     bool // this kernel is acquiring the page
}

// faultBlockShift sets the pages per faultBlock: 32 records, 896 bytes.
const faultBlockShift = 5

type faultBlock [1 << faultBlockShift]fault

// record returns page idx's fault record, making its block on first use. Blocks
// never move, so the record may be held across a wait.
func (h *Handle) record(idx uint32) *fault {
	i := idx - h.sys.cfg.PageLo
	if i >= h.sys.cfg.PageHi-h.sys.cfg.PageLo {
		panic(fmt.Sprintf("svm: page %d outside this system's shared range", idx))
	}
	b := int(i >> faultBlockShift)
	if b >= len(h.faults) {
		h.faults = append(h.faults, make([]*faultBlock, b+1-len(h.faults))...)
	}
	if h.faults[b] == nil {
		h.faults[b] = new(faultBlock)
	}
	return &h.faults[b][i&(1<<faultBlockShift-1)]
}

// eachFault calls f with every page's record, in page order.
func (h *Handle) eachFault(f func(idx uint32, r *fault)) {
	for b, blk := range h.faults {
		if blk != nil {
			for i := range blk {
				f(h.sys.cfg.PageLo+uint32(b<<faultBlockShift+i), &blk[i])
			}
		}
	}
}

// Attach registers kernel k with the SVM system: mail handlers for the
// ownership protocol and the page-fault handler. Every cluster member must
// attach before using SVM operations.
func (s *System) Attach(k *kernel.Kernel) *Handle {
	if h, ok := s.handles[k.ID()]; ok {
		return h
	}
	h := &Handle{sys: s, k: k}
	s.handles[k.ID()] = h
	k.RegisterHandler(msgOwnerReq, h.handleOwnerReq)
	k.RegisterHandler(msgOwnerAck, func(_ *kernel.Kernel, m mailbox.Msg) {
		r := h.record(m.U32(0))
		r.acks++
		r.ackEpoch = m.U32(1) // always zero from the single-copy directory
	})
	k.RegisterHandler(msgOwnerRetry, func(_ *kernel.Kernel, m mailbox.Msg) {
		r := h.record(m.U32(0))
		r.retries++
		if m.U32(1) != 0 { // "not mine": the recorded owner disowns the page
			r.retryNoOwner++
		}
	})
	k.Core().SetFaultHandler(func(c *cpu.Core, vaddr uint32, write bool, e pgtable.Entry) {
		h.handleFault(vaddr, write, e)
	})
	return h
}

// Kernel returns the owning kernel.
func (h *Handle) Kernel() *kernel.Kernel { return h.k }

// Stats returns a snapshot of the handle's counters.
func (h *Handle) Stats() Stats { return h.stats }

// Workers returns the SVM collective participants (see Config.Workers).
func (h *Handle) Workers() []int { return h.sys.workers }

// Rank returns this kernel's position in the worker group, or -1 if the
// kernel is not a worker. With the default worker set (every cluster
// member) this equals the kernel's cluster index.
func (h *Handle) Rank() int {
	for i, id := range h.sys.workers {
		if id == h.k.ID() {
			return i
		}
	}
	return -1
}

// KernelBarrier rendezvouses the worker group without the consistency
// actions of Barrier — the drop-in replacement for kernel.Barrier in
// applications that must not wait on non-worker cores (the replicated
// directory's managers never enter application barriers).
func (h *Handle) KernelBarrier() { h.groupBarrier() }

// groupBarrier synchronizes the worker group (all members by default, in
// which case it is exactly the cluster barrier).
func (h *Handle) groupBarrier() { h.k.BarrierGroup(h.sys.workers) }

// emit reports one of this core's SVM events, stamped with its local time.
func (h *Handle) emit(kind trace.Kind, arg1, arg2 uint64) {
	h.sys.chip.Tracer().Emit(h.k.Core().Now(), h.k.ID(), kind, arg1, arg2)
}

// DebugString summarizes protocol wait state for diagnostics: the pages in
// fault, and the pages holding unconsumed acks or retry notices.
func (h *Handle) DebugString() string {
	inFault, acks, retries := map[uint32]bool{}, map[uint32]int32{}, map[uint32]int32{}
	h.eachFault(func(idx uint32, r *fault) {
		if r.inFault {
			inFault[idx] = true
		}
		if r.acks != 0 {
			acks[idx] = r.acks
		}
		if r.retries != 0 {
			retries[idx] = r.retries
		}
	})
	return fmt.Sprintf("svm %d: inFault=%v acks=%v retries=%v", h.k.ID(), inFault, acks, retries)
}

// Alloc is the collective allocation call (svm_alloc in the paper): every
// member must call it in the same order with the same size; all receive the
// same virtual base address. Only virtual address space is reserved —
// physical frames appear on first touch — but the live regions' pages may
// not outnumber the frames left for data, so a reservation that could not
// be backed fails here rather than at a later touch.
func (h *Handle) Alloc(bytes uint32) uint32 {
	if bytes == 0 {
		panic("svm: zero-byte allocation")
	}
	pages := (bytes + pgtable.PageSize - 1) / pgtable.PageSize
	s := h.sys
	if h.allocSeq == len(s.allocs) {
		// First member to arrive performs the reservation.
		if s.nextPage+pages > s.cfg.PageHi {
			panic(fmt.Sprintf("svm: out of shared address space (%d pages requested)", pages))
		}
		if live := s.livePages(); live+pages > s.dataFrames {
			panic(fmt.Sprintf("svm: out of shared memory (%d pages requested, %d of %d data frames reserved)",
				pages, live, s.dataFrames))
		}
		s.allocs = append(s.allocs, region{base: pageVaddr(s.nextPage), pages: pages})
		h.emit(trace.KindRegionAlloc, uint64(pageVaddr(s.nextPage)), uint64(pages))
		s.nextPage += pages
	}
	r := s.allocs[h.allocSeq]
	if r.pages != pages {
		panic(fmt.Sprintf("svm: collective allocation mismatch: core %d asked %d pages, first caller asked %d",
			h.k.ID(), pages, r.pages))
	}
	h.allocSeq++
	// Per-page bookkeeping cost, then the collective barrier.
	h.k.Core().Cycles(h.sys.cfg.AllocPageCycles * uint64(pages))
	h.groupBarrier()
	return r.base
}

// --- Page fault path ------------------------------------------------------

func (h *Handle) handleFault(vaddr uint32, write bool, e pgtable.Entry) {
	s := h.sys
	idx := s.pageIndex(vaddr)
	if !s.inAllocated(idx) {
		var w uint64
		if write {
			w = 1
		}
		h.emit(trace.KindInvalidAccess, uint64(vaddr), w)
		panic(fmt.Sprintf("svm: core %d touched unallocated shared address %#x", h.k.ID(), vaddr))
	}
	if write && s.inReadonly(idx) {
		h.emit(trace.KindReadOnlyWrite, uint64(vaddr), 0)
		panic(fmt.Sprintf("svm: core %d wrote read-only region at %#x", h.k.ID(), vaddr))
	}
	h.stats.Faults++
	h.emit(trace.KindFault, uint64(vaddr), 0)
	page := pgtable.PageBase(vaddr)

	if e == (pgtable.Entry{}) {
		// Never mapped here: first-touch path through the scratchpad.
		mine := h.firstTouch(idx, page)
		if s.cfg.Model == LazyRelease || s.inReadonly(idx) || mine {
			return
		}
		// Strong model: being mapped is not enough, we must own the page.
		h.acquireOwnership(idx, page)
		return
	}
	// Mapped but not accessible: only the strong model revokes mappings.
	if s.cfg.Model != Strong {
		panic(fmt.Sprintf("svm: unexpected fault on mapped page %#x (model %v, write=%v, flags=%v)",
			vaddr, s.cfg.Model, write, e.Flags))
	}
	h.acquireOwnership(idx, page)
}

// firstTouch resolves the page's frame through the ownership directory,
// allocating (and zeroing) a frame near this core if nobody has yet, and
// maps the page. It reports whether this core performed the allocation
// (and, in the strong model, therefore owns the page).
func (h *Handle) firstTouch(idx, page uint32) (allocated bool) {
	s := h.sys
	layout := s.chip.Layout()

	frame, allocated := s.dir.FirstTouch(h, idx)
	if allocated {
		h.stats.FirstTouches++
	} else {
		h.stats.MapExisting++
	}

	paddr := layout.SharedFrameAddr(frame)
	var flags pgtable.Flags
	switch {
	case s.inReadonly(idx):
		// Read-only regions re-enable the L2 by dropping MPBT.
		flags = pgtable.Present | pgtable.WriteThrough
	case s.cfg.Model == Strong && !allocated:
		// Another core owns the page: record the frame but leave the page
		// inaccessible until ownership arrives.
		flags = pgtable.WriteThrough | pgtable.MPBT
	default:
		flags = pgtable.Present | pgtable.Writable | pgtable.WriteThrough | pgtable.MPBT
	}
	h.k.Core().Cycles(s.cfg.MapCycles)
	h.k.Core().Table.Map(page, paddr>>pgtable.PageShift, flags)
	return allocated
}

// acquireOwnership runs the requester side of the strong model's transfer:
// read the owner, mail it one request, wait for one ack or retry. The
// directory decides where the transfer commits and how long a silent owner
// is waited for.
func (h *Handle) acquireOwnership(idx, page uint32) {
	s := h.sys
	me := h.k.ID()
	r := h.record(idx)
	r.inFault = true
	defer func() { r.inFault, r.retryRounds, r.orphanFrom = false, 0, 0 }()
	acquired := func() {
		h.k.Core().Cycles(s.cfg.MapCycles)
		h.k.Core().Table.SetFlags(page, pgtable.Present|pgtable.Writable, 0)
		h.emit(trace.KindOwnerAcquire, uint64(idx), 0)
	}
	for {
		owner := s.dir.Owner(h, idx)
		switch owner {
		case me:
			// Transfer completed (ack handler may even have raced ahead):
			// consume a pending ack if one is queued for this page.
			if r.acks > 0 {
				r.acks--
			}
			acquired()
			return
		case -1:
			panic(fmt.Sprintf("svm: page %d mapped but unowned in strong model", idx))
		}
		h.stats.OwnerRequests++
		h.emit(trace.KindOwnerRequest, uint64(idx), uint64(owner))
		acks, retries, noOwner := r.acks, r.retries, r.retryNoOwner
		var p [8]byte
		mailbox.PutU32(p[:], 0, idx)
		mailbox.PutU32(p[:], 1, uint32(me))
		h.k.Send(owner, msgOwnerReq, p[:])
		answered := func() bool {
			return r.acks > acks || r.retries > retries
		}
		if !h.k.WaitUntil(answered, s.dir.AckDeadline(h)) {
			// No answer in time. Probe the owner's liveness bit in the
			// system FPGA: a slow owner gets more patience, a dead one
			// triggers directory-driven reclamation.
			if s.chip.ProbeAlive(me, owner) {
				h.ownerRetryBackoff(r)
				continue
			}
			if s.dir.ReclaimDead(h, idx, owner) {
				acquired()
				return
			}
			// A racer reclaimed first (or the owner resurfaced to the
			// directory): re-read the owner and try again.
			continue
		}
		if r.acks > acks {
			r.acks--
			// The previous owner yielded; commit the handoff, fenced by the
			// epoch the ack carried. (Done here rather than in the owner's
			// handler because this runs at top level, where a directory RPC
			// can park safely.)
			if !s.dir.TakeOwnership(h, idx, owner, r.ackEpoch) {
				// Fenced: the record moved on under us; re-read it.
				continue
			}
			acquired()
			return
		}
		// Retry: the peer was mid-fault on the same page. Back off and
		// re-read the owner. Under faults the backoff grows exponentially
		// so a lost acknowledgement cannot turn into a request storm
		// against the recovering owner.
		r.retries--
		if r.retryNoOwner > noOwner {
			// The recorded owner disowns the page: either a handoff is about
			// to commit (transient — the record moves on), or the committer
			// crashed after the yield and the record is orphaned. Two
			// consecutive "not mine" notices from the SAME recorded owner —
			// i.e. a directory re-read in between still named it — mean
			// orphaned: have the directory reassign the page to us with an
			// epoch bump (which fences the stale handoff if we guessed wrong
			// and it does commit late — that commit is refused, not lost).
			if r.orphanFrom == int32(owner)+1 {
				if s.dir.ReclaimOrphan(h, idx, owner) {
					acquired()
					return
				}
				r.orphanFrom = 0 // record moved on; re-read it
			} else {
				r.orphanFrom = int32(owner) + 1
			}
		} else {
			r.orphanFrom = 0
		}
		h.ownerRetryBackoff(r)
	}
}

// ownerRetryBackoff charges the requester's retry backoff for the page of
// record r: constant in plain runs, exponential per page under hardened
// fault injection.
func (h *Handle) ownerRetryBackoff(r *fault) {
	backoff := uint64(500)
	if h.sys.chip.FaultsHardened() {
		backoff <<= min(r.retryRounds, 5)
		r.retryRounds++
		h.stats.OwnerBackoffs++
	}
	h.k.Core().Cycles(backoff)
}

// handleOwnerReq runs on the owner side: revoke, flush, hand over, ack.
func (h *Handle) handleOwnerReq(_ *kernel.Kernel, m mailbox.Msg) {
	s := h.sys
	me := h.k.ID()
	idx := m.U32(0)
	requester := int(m.U32(1))
	page := pageVaddr(idx)

	// Serving a peer's fault is fault-handling time even when it lands in
	// the middle of this core's own wait loop.
	s.prof.Enter(me, profile.FaultHandling, h.k.Core().Proc().LocalTime())
	defer func() { s.prof.Exit(me, h.k.Core().Proc().LocalTime()) }()

	if h.record(idx).inFault {
		// We are acquiring this page ourselves; tell the requester to back
		// off rather than handing away a page mid-access.
		h.stats.Retries++
		var p [4]byte
		mailbox.PutU32(p[:], 0, idx)
		h.k.Send(requester, msgOwnerRetry, p[:])
		return
	}
	var p [8]byte
	mailbox.PutU32(p[:], 0, idx)
	if owner := s.dir.LocalOwner(h, idx); owner != me {
		// Stale request: the requester read an outdated owner.
		h.stats.Forwards++
		switch owner {
		case -1:
			// The directory can only say "not mine": bounce the requester
			// back to its authoritative read, flagged so that a requester
			// that keeps landing here can detect an orphaned record (see
			// acquireOwnership).
			mailbox.PutU32(p[:], 1, 1)
			h.k.Send(requester, msgOwnerRetry, p[:])
		case requester:
			// The request was served already and is seen a second time
			// (the plain mailbox can dispatch a frame twice): ack again.
			h.k.Send(requester, msgOwnerAck, p[:])
		default:
			mailbox.PutU32(p[:], 1, uint32(requester))
			h.k.Send(owner, msgOwnerReq, p[:])
		}
		return
	}
	h.stats.OwnerServed++
	h.emit(trace.KindOwnerTransfer, uint64(idx), uint64(requester))
	h.k.Core().Cycles(s.cfg.OwnershipServeCycles)
	// Revoke our access, publish our writes, drop our cached lines.
	if _, ok := h.k.Core().Table.Lookup(page); ok {
		h.k.Core().Table.SetFlags(page, 0, pgtable.Present|pgtable.Writable)
	}
	h.k.Core().FlushWCB()
	h.k.Core().CL1INVMB()
	h.emit(trace.KindOwnerYield, uint64(idx), uint64(requester))
	mailbox.PutU32(p[:], 1, s.dir.YieldPage(h, idx, requester))
	h.k.Send(requester, msgOwnerAck, p[:])
}

// --- Synchronization ------------------------------------------------------

// Barrier synchronizes all members with the consistency actions the model
// requires: release (flush) before the rendezvous, acquire (invalidate)
// after it.
func (h *Handle) Barrier() {
	h.stats.Barriers++
	s := h.sys
	s.prof.Enter(h.k.ID(), profile.BarrierWait, h.k.Core().Proc().LocalTime())
	h.k.Core().FlushWCB()
	h.groupBarrier()
	h.k.Core().CL1INVMB()
	s.prof.Exit(h.k.ID(), h.k.Core().Proc().LocalTime())
}

// Lock enters a critical section under lazy release consistency: acquire
// the SVM lock, then invalidate SVM-cached lines so the section reads
// fresh data. (Usable under the strong model too, where it is only a lock.)
//
// SVM locks are off-die lock words, NOT raw test-and-set registers: the
// scarce registers double as the scratchpad directory's guards, and a page
// fault inside a critical section would self-deadlock spinning on a
// register its own core already holds. Instead, the register for the lock
// id is held only for the instant it takes to inspect and flip the word —
// a fault arriving in between always finds it released.
func (h *Handle) Lock(id int) {
	s := h.sys
	me := h.k.ID()
	word := lockWord(id)
	reg, addr := s.lockReg(word), s.lockAddr(word)
	h.stats.Locks++
	s.prof.Enter(me, profile.LockWait, h.k.Core().Proc().LocalTime())
	for {
		s.tasSpin(h, reg)
		free := s.chip.PhysRead32(me, addr) == 0
		if free {
			s.chip.PhysWrite32(me, addr, uint32(me)+1)
		}
		s.chip.TASUnlock(me, reg)
		if free {
			break
		}
		// Taken: park until some Unlock fires this lock's signal, then
		// compete again.
		h.stats.LockWaits++
		s.lockSig(word).Wait(h.k.Core().Proc())
	}
	h.emit(trace.KindLockAcquire, uint64(word), 0)
	h.k.Core().CL1INVMB()
	s.prof.Exit(me, h.k.Core().Proc().LocalTime())
}

// Unlock leaves the critical section: publish the write-combine buffer,
// then release the lock word and wake the next contender.
func (h *Handle) Unlock(id int) {
	s := h.sys
	me := h.k.ID()
	word := lockWord(id)
	h.emit(trace.KindLockRelease, uint64(word), 0)
	s.prof.Enter(me, profile.LockWait, h.k.Core().Proc().LocalTime())
	h.k.Core().FlushWCB()
	addr := s.lockAddr(word)
	if holder := s.chip.PhysRead32(me, addr); holder != uint32(me)+1 {
		panic(fmt.Sprintf("svm: core %d unlocks lock %d held by %d", me, id, int(holder)-1))
	}
	s.chip.PhysWrite32(me, addr, 0)
	s.lockSig(word).Fire(h.k.Core().Proc().LocalTime())
	s.prof.Exit(me, h.k.Core().Proc().LocalTime())
}

// ProtectReadOnly is the collective mprotect of Section 6.4: after it, the
// region rejects writes and — because the MPBT bit is cleared — is cached
// in the L2 again. Every member must call it; pages the member has not
// touched are mapped read-only on the spot.
func (h *Handle) ProtectReadOnly(base, bytes uint32) {
	s := h.sys
	pages := (bytes + pgtable.PageSize - 1) / pgtable.PageSize
	first := s.pageIndex(base)
	// One member records the region; everyone waits, then remaps.
	if !s.inReadonly(first) {
		s.readonly = append(s.readonly, region{base: pgtable.PageBase(base), pages: pages})
		h.emit(trace.KindRegionProtect, uint64(pgtable.PageBase(base)), uint64(pages))
	}
	h.groupBarrier()
	h.k.Core().FlushWCB()
	for i := uint32(0); i < pages; i++ {
		idx := first + i
		page := pageVaddr(idx)
		if e, ok := h.k.Core().Table.Lookup(page); ok && e.Flags.Has(pgtable.Present) {
			h.k.Core().Cycles(s.cfg.MapCycles / 4)
			h.k.Core().Table.SetFlags(page, 0, pgtable.Writable|pgtable.MPBT)
		} else {
			// Map it read-only now (frame must exist or appears by first
			// touch of a zero page).
			h.firstTouch(idx, page)
		}
	}
	// Lines cached under the MPBT type must go: their tag no longer
	// matches the page type, and the L2 path will refill them.
	h.k.Core().CL1INVMB()
	h.groupBarrier()
}
