// Package repldir is the crash-fault-tolerant replacement for the SVM
// system's single-copy ownership directory: designated manager cores run a
// viewstamped-replication kernel over the (hardened) mailbox and keep the
// per-page frame/owner/epoch state replicated. Ownership transfers are
// proposals committed by the primary with a majority (primary + one backup
// ack); reads are served by the primary; a crashed primary triggers a view
// change to the next alive manager; a crashed page owner is detected via
// the chip's liveness register and its pages are revoked and reassigned by
// a committed reclaim operation, bumping the page's epoch so the corpse's
// in-flight transfers are fenced.
//
// On a multi-chip machine the directory runs one independent replica group
// of ReplicaCount managers per chip. A page's record lives with the group
// of its home chip (svm.System.HomeChip), so directory
// traffic for chip-local pages never crosses the inter-chip link; groups
// share the mail-type space safely because manager cores are disjoint
// across groups and all handlers are per-core.
//
// Disciplines:
//
//   - Seeded-deterministic: the protocol consumes no randomness — timeouts,
//     probes and elections are all functions of simulated time and the
//     deterministic crash schedule, so the same seed replays bit-identically.
//   - Zero-perturbation when absent: nothing here runs unless the facade
//     installs the directory; the legacy single-copy path is untouched.
//   - The observability surface (trace emissions, stats, diagnostics dump)
//     charges no simulated time; events go through the chip's nil-safe
//     stream like every other layer's.
package repldir

import (
	"fmt"

	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
	"metalsvm/internal/trace"
)

// ReplicaCount is the size of each chip's manager group. Three replicas
// survive one crash with a majority intact, which is the fault model of the
// chaos schedules (the protocol degrades to solo commits below quorum
// rather than halting — on a crashed simulated chip there is nobody left to
// lie).
const ReplicaCount = 3

// Mail types (claimed above the SVM ownership protocol's MsgUser+0..2 and
// the benchmarks' MsgUser+8..11).
const (
	msgRequest   = kernel.MsgUser + 32 // client → primary: [id, kind, page, a, b]
	msgReply     = kernel.MsgUser + 33 // primary → client: [id, status, a, b, c]
	msgPrepare   = kernel.MsgUser + 34 // primary → backup: [view, opnum, opkind, page, a, b]
	msgPrepareOK = kernel.MsgUser + 35 // backup → primary: [view, opnum] (cumulative)
	msgDoView    = kernel.MsgUser + 36 // successor → peers: [newview, opnum]
	msgDoViewOK  = kernel.MsgUser + 37 // peer → successor: [newview, opnum]
	msgGetOp     = kernel.MsgUser + 38 // behind → ahead: [opnum]
	msgOpEntry   = kernel.MsgUser + 39 // ahead → behind: [opnum, opkind, page, a, b]
	msgStartView = kernel.MsgUser + 40 // new primary → peers: [view, opnum]
)

// Request kinds.
const (
	reqLookup   = iota // page → frame/owner/epoch (first-touch read)
	reqClaim           // page, frame → won/frame/epoch (first-touch write)
	reqGetOwner        // page → owner/epoch
	reqTransfer        // page, prevOwner, epoch → ok|fenced (sender becomes owner)
	reqReclaim         // page, deadOwner → ok(epoch)|denied(owner,epoch)
	reqForget          // page → frame (free path)
	reqOrphan          // page, recordedOwner → ok(epoch)|denied (owner disowns)
)

// Reply statuses.
const (
	repOK       = iota // request served
	repRedirect        // not the primary; a = the replica's view
	repDenied          // reclaim refused; a = current owner (enc), b = epoch
	repFenced          // transfer fenced; a = current owner (enc), b = epoch
)

// Protocol timeouts (simulated microseconds). All deterministic: they only
// decide when to consult the liveness register, never inject randomness.
const (
	ownerAckTimeoutUS = 500 // requester waiting for an ownership ack
	requestTimeoutUS  = 400 // client RPC before probing the primary
	prepareTimeoutUS  = 300 // primary waiting for a backup ack
	changeRetryUS     = 600 // elected successor re-soliciting a stalled election
	fetchRetryUS      = 350 // catch-up chain quiet time before the watchdog re-kicks
)

// fetchGiveUpTries bounds watchdog re-kicks of a catch-up chain that keeps
// dying; a view-change catch-up with an alive source is exempt (it must
// finish or committed ops are lost).
const fetchGiveUpTries = 4

// Config parameterizes the replicated directory.
type Config struct {
	// Managers are the cores running the replication kernel: ReplicaCount
	// per chip, listed group by group in chip order (chip 0's replicas
	// first, each group in view order). The facade picks the highest
	// non-worker cores of each chip when nil.
	Managers []int
}

// serveCycles is the primary's per-request bookkeeping cost (directory
// lookup, log append) — a fraction of the owner-side OwnershipServeCycles,
// since the directory touches a table entry rather than flushing caches.
const serveCycles = 400

// Stats counts the directory's protocol events (system-wide).
type Stats struct {
	Requests        uint64 // requests served by a primary
	Lookups         uint64
	Claims          uint64
	GetOwners       uint64
	Transfers       uint64
	Reclaims        uint64 // client reclaim attempts
	Forgets         uint64
	Redirects       uint64 // requests bounced off non-primaries
	Timeouts        uint64 // client RPCs that timed out
	ClientRetries   uint64 // client RPC retry rounds
	Commits         uint64 // ops committed (any kind)
	Prepares        uint64 // prepare messages sent
	PrepareOKs      uint64 // prepare acks sent
	SoloCommits     uint64 // commits that proceeded without a backup ack
	ViewChanges     uint64 // completed failovers
	Reconstructions uint64 // dead-owner pages revoked and reassigned
	Fenced          uint64 // stale transfers refused by epoch/owner fencing
	OrphanReclaims  uint64 // pages whose recorded owner disowned them (orphaned handoff)
	FetchRetries    uint64 // catch-up chains re-kicked by the watchdog
	FetchAborts     uint64 // catch-up chains abandoned after repeated deaths
}

// group is one chip's replica set: an independent viewstamped-replication
// instance over ReplicaCount manager cores, serving the pages whose home
// chip it runs on. index doubles as the home-chip number the group serves.
type group struct {
	index    int
	managers []int // replica cores in view order
}

// primaryOf returns the group's manager core owning a view.
func (g *group) primaryOf(view uint32) int {
	return g.managers[int(view%uint32(len(g.managers)))]
}

// System is the replicated directory. It implements svm.OwnerDirectory for
// the worker cores and runs the replication kernel on the manager cores.
type System struct {
	svm  *svm.System
	cl   *kernel.Cluster
	chip *scc.Chip

	managers []int // flat, chip 0's group first (view order within a group)
	groups   []*group
	groupOf  map[int]*group // manager core → its replica group

	replicas map[int]*replica // per manager core
	clients  map[int]*client  // per worker core

	stats Stats
}

// New builds the directory over an SVM system whose cluster contains the
// manager cores as members (but not as SVM workers): ReplicaCount managers
// per chip, each group resident on the chip whose pages it serves. Install
// it with svm.System.SetDirectory before any kernel attaches.
func New(sys *svm.System, cfg Config) (*System, error) {
	cl := sys.Cluster()
	chip := cl.Chip()
	chips := chip.Chips()
	if len(cfg.Managers) != ReplicaCount*chips {
		return nil, fmt.Errorf("repldir: need %d managers (%d per chip x %d chips) listed chip by chip, got %v",
			ReplicaCount*chips, ReplicaCount, chips, cfg.Managers)
	}
	member := make(map[int]bool, len(cl.Members()))
	for _, m := range cl.Members() {
		member[m] = true
	}
	worker := make(map[int]bool, len(sys.Workers()))
	for _, w := range sys.Workers() {
		worker[w] = true
	}
	for i, m := range cfg.Managers {
		if !member[m] {
			return nil, fmt.Errorf("repldir: manager %d is not a cluster member", m)
		}
		if worker[m] {
			return nil, fmt.Errorf("repldir: manager %d is also an SVM worker", m)
		}
		if want := i / ReplicaCount; chip.ChipOfCore(m) != want {
			return nil, fmt.Errorf("repldir: manager %d lives on chip %d but is listed in chip %d's replica group (groups serve their own chip's pages)",
				m, chip.ChipOfCore(m), want)
		}
	}
	d := &System{
		svm:      sys,
		cl:       cl,
		chip:     chip,
		managers: append([]int(nil), cfg.Managers...),
		groupOf:  make(map[int]*group),
		replicas: make(map[int]*replica),
		clients:  make(map[int]*client),
	}
	for gi := 0; gi < chips; gi++ {
		g := &group{index: gi, managers: d.managers[gi*ReplicaCount : (gi+1)*ReplicaCount]}
		d.groups = append(d.groups, g)
		for _, m := range g.managers {
			d.groupOf[m] = g
		}
	}
	return d, nil
}

// Managers returns every manager core id: chip 0's replica group first,
// each group in view order — so Managers()[0] and Managers()[1] are chip
// 0's initial primary and first backup, which is what the crash-schedule
// role sentinels resolve against.
func (d *System) Managers() []int { return d.managers }

// groupFor routes a page to the replica group of its home chip.
func (d *System) groupFor(idx uint32) *group {
	return d.groups[d.svm.HomeChip(idx)]
}

// Stats returns a snapshot of the directory counters.
func (d *System) Stats() Stats { return d.stats }

// IsManager reports whether a core runs a directory replica.
func (d *System) IsManager(id int) bool {
	for _, m := range d.managers {
		if m == id {
			return true
		}
	}
	return false
}

// Attach wires a kernel into the directory: managers get the replication
// kernel (handlers, replica state, failure-detector tick hook), workers get
// the client RPC endpoint. Must run before the kernel touches SVM state.
func (d *System) Attach(k *kernel.Kernel) {
	if d.IsManager(k.ID()) {
		d.attachManager(k)
	} else {
		d.attachWorker(k)
	}
}

// ManagerMain is the manager core's kernel main: service directory traffic
// until every SVM worker has finished or crash-halted. The WaitFor park
// services mail continuously, and each timer tick runs the failure detector.
func (d *System) ManagerMain(k *kernel.Kernel) {
	cl := k.Cluster()
	k.WaitFor(func() bool {
		for _, w := range d.svm.Workers() {
			wk := cl.Kernel(w)
			if wk == nil || (!wk.Finished() && !wk.Dead()) {
				return false
			}
		}
		return true
	})
}

// --- Client side (worker cores) ------------------------------------------

// rpcReply is one decoded directory reply.
type rpcReply struct {
	status  uint32
	a, b, c uint32
}

// client is a worker core's endpoint: a request sequence and the replies
// received, keyed by request id so nested RPCs (a transfer commit inside a
// mail handler, interleaved with an outer lookup) never clobber each other.
// The view guess is per replica group — each chip's group fails over
// independently. The sequence is shared across groups, so ids stay unique
// and one msgReply handler serves every group.
type client struct {
	views   []uint32 // per-group guess of the primary's view
	seq     uint32
	replies map[uint32]rpcReply
	owned   map[uint32]bool   // pages this core owns (authoritative while alive)
	epochs  map[uint32]uint32 // cached per-page epochs (exact while owner)
}

func (d *System) attachWorker(k *kernel.Kernel) {
	if _, ok := d.clients[k.ID()]; ok {
		return
	}
	c := &client{
		views:   make([]uint32, len(d.groups)),
		replies: make(map[uint32]rpcReply),
		owned:   make(map[uint32]bool),
		epochs:  make(map[uint32]uint32),
	}
	d.clients[k.ID()] = c
	k.RegisterHandler(msgReply, func(_ *kernel.Kernel, m mailbox.Msg) {
		c.replies[m.U32(0)] = rpcReply{status: m.U32(1), a: m.U32(2), b: m.U32(3), c: m.U32(4)}
	})
}

func (d *System) client(h *svm.Handle) *client {
	c := d.clients[h.Kernel().ID()]
	if c == nil {
		panic(fmt.Sprintf("repldir: core %d used the directory without Attach", h.Kernel().ID()))
	}
	return c
}

// rpc runs one synchronous directory request against the page's home
// group's current primary, following redirects and failing over past
// crashed managers. It always returns a served reply (ok, denied or
// fenced) — the directory survives any crash pattern the fault model
// allows, so persistence is correct.
func (c *client) rpc(d *System, k *kernel.Kernel, g *group, kind, page, a, b uint32) rpcReply {
	me := k.ID()
	n := uint32(len(g.managers))
	for attempt := 0; ; attempt++ {
		target := g.managers[int(c.views[g.index]%n)]
		if d.chip.CoreCrashed(target) {
			// Free liveness read: skip a known corpse without a timeout.
			c.views[g.index]++
			continue
		}
		c.seq++
		id := c.seq
		var p [20]byte
		mailbox.PutU32(p[:], 0, id)
		mailbox.PutU32(p[:], 1, kind)
		mailbox.PutU32(p[:], 2, page)
		mailbox.PutU32(p[:], 3, a)
		mailbox.PutU32(p[:], 4, b)
		k.Send(target, msgRequest, p[:])
		deadline := k.Core().Proc().LocalTime() + sim.Microseconds(requestTimeoutUS)
		if !k.WaitUntil(func() bool { _, ok := c.replies[id]; return ok }, deadline) {
			d.stats.Timeouts++
			if !d.chip.ProbeAlive(me, target) {
				c.views[g.index]++ // the primary died under us; try its successor
			}
			d.stats.ClientRetries++
			c.backoff(k, attempt)
			continue
		}
		rep := c.replies[id]
		delete(c.replies, id)
		if rep.status == repRedirect {
			if rep.a > c.views[g.index] {
				c.views[g.index] = rep.a
			}
			c.backoff(k, attempt)
			continue
		}
		return rep
	}
}

// backoff charges the client's growing retry delay (deterministic; the
// exponent caps like the SVM owner-retry backoff).
func (c *client) backoff(k *kernel.Kernel, attempt int) {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	k.Core().Cycles(2000 << shift)
}

// enc encodes a core id as the directory's owner field (0 = no owner).
func enc(core int) uint32 { return uint32(core + 1) }

// --- svm.OwnerDirectory --------------------------------------------------

// FirstTouch resolves the page via the directory: a lookup, then — when the
// page has no frame — a local allocation raced through a claim commit. The
// loser of a claim race frees its candidate frame and maps the winner's.
func (d *System) FirstTouch(h *svm.Handle, idx uint32) (uint32, bool) {
	k := h.Kernel()
	me := k.ID()
	c := d.client(h)
	g := d.groupFor(idx)
	layout := d.chip.Layout()

	rep := c.rpc(d, k, g, reqLookup, idx, 0, 0)
	if rep.a != 0 {
		c.epochs[idx] = rep.c
		return rep.a, false
	}
	sf, ok := d.svm.AllocFrame(me)
	if !ok {
		panic("svm: shared memory exhausted")
	}
	k.Core().Cycles(d.svm.Config().FrameAllocCycles)
	d.chip.ZeroSharedFrame(me, layout.SharedFrameAddr(sf))
	rep = c.rpc(d, k, g, reqClaim, idx, sf, 0)
	if rep.a == 1 {
		c.owned[idx] = true
		c.epochs[idx] = rep.c
		d.chip.Tracer().Emit(k.Core().Now(), me, trace.KindFirstTouch, uint64(idx), uint64(sf))
		return sf, true
	}
	// Lost the race: another core claimed the page first.
	d.svm.FreeFrame(sf)
	c.epochs[idx] = rep.c
	return rep.b, false
}

// Owner reads the page's record at the primary. A record naming the caller
// is its claim, so the caller now holds the page locally.
func (d *System) Owner(h *svm.Handle, idx uint32) int {
	c := d.client(h)
	rep := c.rpc(d, h.Kernel(), d.groupFor(idx), reqGetOwner, idx, 0, 0)
	c.epochs[idx] = rep.b
	owner := int(rep.a) - 1
	if owner == h.Kernel().ID() {
		c.owned[idx] = true
	}
	return owner
}

// LocalOwner answers from the caller's own claims, charging nothing: the
// caller when it holds the page, otherwise -1 — the record lives at the
// managers, so the requester is sent back to re-read it rather than
// forwarded along a chain of guesses.
func (d *System) LocalOwner(h *svm.Handle, idx uint32) int {
	if d.client(h).owned[idx] {
		return h.Kernel().ID()
	}
	return -1
}

// YieldPage runs in the owner's mail handler, so it must not block: it only
// drops the local claim and reports the cached epoch (exact while we own the
// page) for the requester's fenced commit.
func (d *System) YieldPage(h *svm.Handle, idx uint32, _ int) uint32 {
	c := d.client(h)
	delete(c.owned, idx)
	return c.epochs[idx]
}

// AckDeadline bounds the wait for an ownership ack; past it the requester
// probes the owner's liveness.
func (d *System) AckDeadline(h *svm.Handle) sim.Time {
	return h.Kernel().Core().Proc().LocalTime() + sim.Microseconds(ownerAckTimeoutUS)
}

// TakeOwnership commits the requester side of an acknowledged handoff.
func (d *System) TakeOwnership(h *svm.Handle, idx uint32, prev int, epoch uint32) bool {
	c := d.client(h)
	rep := c.rpc(d, h.Kernel(), d.groupFor(idx), reqTransfer, idx, enc(prev), epoch)
	if rep.status != repOK {
		return false
	}
	c.owned[idx] = true
	c.epochs[idx] = epoch
	return true
}

func (d *System) ReclaimDead(h *svm.Handle, idx uint32, dead int) bool {
	d.stats.Reclaims++
	return d.reclaim(h, idx, reqReclaim, dead)
}

// ReclaimOrphan recovers a page whose recorded owner no longer holds it: the
// previous requester crashed after the owner yielded but before committing
// the transfer, leaving the record pointing at an alive core that keeps
// answering "not mine". The directory reassigns the page to the caller with
// an epoch bump, fencing any still-in-flight stale handoff.
func (d *System) ReclaimOrphan(h *svm.Handle, idx uint32, owner int) bool {
	return d.reclaim(h, idx, reqOrphan, owner)
}

// reclaim runs one reassignment request (kind reqReclaim or reqOrphan)
// against owner's record and, when the caller wins, claims the page at the
// epoch the commit bumped it to.
func (d *System) reclaim(h *svm.Handle, idx, kind uint32, owner int) bool {
	c := d.client(h)
	rep := c.rpc(d, h.Kernel(), d.groupFor(idx), kind, idx, enc(owner), 0)
	if rep.status != repOK {
		return false
	}
	c.owned[idx] = true
	c.epochs[idx] = rep.a
	return true
}

func (d *System) ReleasePage(h *svm.Handle, idx uint32) uint32 {
	c := d.client(h)
	rep := c.rpc(d, h.Kernel(), d.groupFor(idx), reqForget, idx, 0, 0)
	delete(c.owned, idx)
	delete(c.epochs, idx)
	return rep.a
}

// PeekOwner reads the most advanced alive replica's record in the page's
// home group (host-side, uncharged — diagnostics only).
func (d *System) PeekOwner(idx uint32) int {
	r := d.bestReplica(d.groupFor(idx))
	if r == nil {
		return -1
	}
	return int(r.state[idx].owner) - 1
}

// bestReplica picks the group's alive replica with the highest
// (view, opnum) — the authority for host-side peeks.
func (d *System) bestReplica(g *group) *replica {
	var best *replica
	for _, mgr := range g.managers {
		if d.chip.CoreCrashed(mgr) {
			continue
		}
		r := d.replicas[mgr]
		if r == nil {
			continue
		}
		if best == nil || r.view > best.view ||
			(r.view == best.view && r.opnum > best.opnum) {
			best = r
		}
	}
	return best
}
