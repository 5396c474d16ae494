package repldir

import (
	"fmt"
	"io"

	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// Log operation kinds.
const (
	opClaim    = iota // a = frame, b = owner (enc): create the page record
	opTransfer        // a = new owner (enc)
	opReclaim         // a = new owner (enc); bumps the page epoch
	opForget          // drop the page record
)

func opName(kind uint32) string {
	switch kind {
	case opClaim:
		return "claim"
	case opTransfer:
		return "transfer"
	case opReclaim:
		return "reclaim"
	case opForget:
		return "forget"
	}
	return fmt.Sprintf("op(%d)", kind)
}

// op is one committed directory operation.
type op struct {
	kind uint32
	page uint32
	a, b uint32
}

// pageState is the replicated per-page record. The owner is stored encoded
// (core+1) so the zero value means "no record".
type pageState struct {
	frame uint32
	owner uint32 // enc(core); 0 = none
	epoch uint32 // bumped only by reclaim, so an alive owner's cache is exact
}

// Replica statuses.
const (
	statusNormal = iota
	statusViewChange
)

// Catch-up modes: what to do once the GetOp chain reaches its target.
const (
	fetchNone       = iota
	fetchAck        // ack the primary (prepare gap or StartView catch-up)
	fetchViewChange // finish the pending view change (elected successor)
)

// replica is one manager core's replication state. All mutation happens on
// that core's kernel goroutine (handlers and the tick hook).
type replica struct {
	g           *group // the chip-local replica group this core belongs to
	view        uint32
	status      int
	pendingView uint32
	opnum       uint32
	commit      uint32
	log         []op
	state       map[uint32]pageState

	// ackedThrough is the highest opnum any backup has cumulatively acked —
	// the primary's majority evidence.
	ackedThrough uint32

	// View-change solicitation state (meaningful on the elected successor).
	dvAcks      int
	dvNeeded    int
	bestOp      uint32
	bestFrom    int
	changeStart sim.Time

	// Catch-up (GetOp chain) state. fetchLast/fetchTries drive the tick
	// watchdog: a chain whose source died (or whose OpEntry was eaten by the
	// mailbox of a crashed hop) is re-kicked against an alive peer instead of
	// stalling forever.
	fetching    bool
	fetchTarget uint32
	fetchPeer   int
	fetchMode   int
	fetchAckTo  int
	fetchLast   sim.Time
	fetchTries  int

	// forgotten tombstones the frame of each dropped page record so a
	// retried forget (reply lost to a primary crash) still learns the frame
	// instead of leaking it. A later claim of the same page clears the
	// tombstone — the address space was reused, not re-asked.
	forgotten map[uint32]uint32
}

func (r *replica) applyOp(o op) {
	switch o.kind {
	case opClaim:
		if _, ok := r.state[o.page]; !ok {
			r.state[o.page] = pageState{frame: o.a, owner: o.b, epoch: 1}
			delete(r.forgotten, o.page)
		}
	case opTransfer:
		st := r.state[o.page]
		st.owner = o.a
		r.state[o.page] = st
	case opReclaim:
		st := r.state[o.page]
		st.owner = o.a
		st.epoch++
		r.state[o.page] = st
	case opForget:
		if st, ok := r.state[o.page]; ok {
			r.forgotten[o.page] = st.frame
		}
		delete(r.state, o.page)
	}
}

// appendOp applies the next in-order op to the log and state.
func (r *replica) appendOp(o op) {
	r.opnum++
	r.log = append(r.log, o)
	r.applyOp(o)
	r.commit = r.opnum
}

func (d *System) attachManager(k *kernel.Kernel) {
	if _, ok := d.replicas[k.ID()]; ok {
		return
	}
	r := &replica{g: d.groupOf[k.ID()], state: make(map[uint32]pageState),
		forgotten: make(map[uint32]uint32), bestFrom: -1, fetchPeer: -1, fetchAckTo: -1}
	d.replicas[k.ID()] = r
	k.RegisterHandler(msgRequest, func(_ *kernel.Kernel, m mailbox.Msg) { d.handleRequest(k, r, m) })
	k.RegisterHandler(msgPrepare, func(_ *kernel.Kernel, m mailbox.Msg) { d.handlePrepare(k, r, m) })
	k.RegisterHandler(msgPrepareOK, func(_ *kernel.Kernel, m mailbox.Msg) {
		if opn := m.U32(1); opn > r.ackedThrough {
			r.ackedThrough = opn
		}
	})
	k.RegisterHandler(msgDoView, func(_ *kernel.Kernel, m mailbox.Msg) { d.handleDoView(k, r, m) })
	k.RegisterHandler(msgDoViewOK, func(_ *kernel.Kernel, m mailbox.Msg) { d.handleDoViewOK(k, r, m) })
	k.RegisterHandler(msgGetOp, func(_ *kernel.Kernel, m mailbox.Msg) { d.handleGetOp(k, r, m) })
	k.RegisterHandler(msgOpEntry, func(_ *kernel.Kernel, m mailbox.Msg) { d.handleOpEntry(k, r, m) })
	k.RegisterHandler(msgStartView, func(_ *kernel.Kernel, m mailbox.Msg) { d.handleStartView(k, r, m) })
	k.SetTickHook(func() { d.tick(k, r) })
}

// --- Request serving (primary) -------------------------------------------

func (d *System) handleRequest(k *kernel.Kernel, r *replica, m mailbox.Msg) {
	me := k.ID()
	id, kind, page, a, b := m.U32(0), m.U32(1), m.U32(2), m.U32(3), m.U32(4)
	from := m.From
	reply := func(status, ra, rb, rc uint32) {
		var p [20]byte
		mailbox.PutU32(p[:], 0, id)
		mailbox.PutU32(p[:], 1, status)
		mailbox.PutU32(p[:], 2, ra)
		mailbox.PutU32(p[:], 3, rb)
		mailbox.PutU32(p[:], 4, rc)
		k.Send(from, msgReply, p[:])
	}
	if r.status != statusNormal || r.g.primaryOf(r.view) != me {
		d.stats.Redirects++
		v := r.view
		if r.status == statusViewChange && r.pendingView > v {
			v = r.pendingView
		}
		reply(repRedirect, v, 0, 0)
		return
	}
	d.stats.Requests++
	k.Core().Cycles(serveCycles)
	switch kind {
	case reqLookup:
		d.stats.Lookups++
		st := r.state[page]
		reply(repOK, st.frame, st.owner, st.epoch)
	case reqClaim:
		d.stats.Claims++
		if st, ok := r.state[page]; ok {
			// Lost race — or our own earlier claim whose reply was lost to
			// a primary crash; the owner check makes the retry idempotent.
			won := uint32(0)
			if st.owner == enc(from) {
				won = 1
			}
			reply(repOK, won, st.frame, st.epoch)
			return
		}
		d.commitOp(k, r, op{kind: opClaim, page: page, a: a, b: enc(from)})
		reply(repOK, 1, a, 1)
	case reqGetOwner:
		d.stats.GetOwners++
		st := r.state[page]
		reply(repOK, st.owner, st.epoch, 0)
	case reqTransfer:
		// The sender is the new owner; a names the previous owner, b the
		// epoch that owner reported when it yielded.
		d.stats.Transfers++
		st, ok := r.state[page]
		if ok && st.owner == enc(from) {
			reply(repOK, 0, 0, 0) // duplicate commit after a lost reply
			return
		}
		if !ok || st.owner != a || st.epoch != b {
			// Epoch fencing: the handoff went stale (a reclaim revoked the
			// previous owner believing it dead, or the record moved on).
			// Refuse; the requester re-reads the directory.
			d.stats.Fenced++
			reply(repFenced, st.owner, st.epoch, 0)
			return
		}
		d.commitOp(k, r, op{kind: opTransfer, page: page, a: enc(from)})
		reply(repOK, 0, 0, 0)
	case reqReclaim, reqOrphan:
		if kind == reqOrphan {
			d.stats.OrphanReclaims++
		}
		st, ok := r.state[page]
		if !ok || st.owner != a {
			reply(repDenied, st.owner, st.epoch, 0)
			return
		}
		if kind == reqReclaim && d.chip.ProbeAlive(me, int(a)-1) {
			// The requester's timeout was premature: the owner is alive in
			// the liveness register, so its ack is merely slow. An orphan
			// reclaim skips the probe — there the recorded owner itself is
			// disowning the page (it yielded, but the requester died before
			// committing the transfer), so aliveness proves nothing.
			reply(repDenied, st.owner, st.epoch, 0)
			return
		}
		d.commitOp(k, r, op{kind: opReclaim, page: page, a: enc(from)})
		st = r.state[page]
		d.stats.Reconstructions++
		d.chip.Tracer().Emit(k.Core().Now(), me, trace.KindDirReclaim, uint64(page), uint64(from))
		reply(repOK, st.epoch, 0, 0)
	case reqForget:
		d.stats.Forgets++
		st, ok := r.state[page]
		if ok {
			d.commitOp(k, r, op{kind: opForget, page: page})
			reply(repOK, st.frame, 0, 0)
			return
		}
		// No record: either the page never materialized (frame 0) or this is
		// a retry of a forget whose reply died with the old primary — the
		// tombstone keeps the frame from leaking in that case.
		reply(repOK, r.forgotten[page], 0, 0)
	}
}

// commitOp appends and applies the op locally, then replicates it: prepare
// to every alive backup and wait for one cumulative ack (majority with the
// primary itself). When no backup is alive — or a backup dies mid-wait and
// none remain — the commit proceeds solo and is counted as such.
func (d *System) commitOp(k *kernel.Kernel, r *replica, o op) {
	me := k.ID()
	r.appendOp(o)
	d.stats.Commits++
	d.chip.Tracer().Emit(k.Core().Now(), me, trace.KindDirCommit, uint64(o.page), uint64(r.opnum))
	opn := r.opnum
	alive := 0
	for _, mgr := range r.g.managers {
		if mgr == me || d.chip.CoreCrashed(mgr) {
			continue
		}
		alive++
		d.stats.Prepares++
		var p [24]byte
		mailbox.PutU32(p[:], 0, r.view)
		mailbox.PutU32(p[:], 1, opn)
		mailbox.PutU32(p[:], 2, o.kind)
		mailbox.PutU32(p[:], 3, o.page)
		mailbox.PutU32(p[:], 4, o.a)
		mailbox.PutU32(p[:], 5, o.b)
		k.Send(mgr, msgPrepare, p[:])
	}
	if alive == 0 {
		d.stats.SoloCommits++
		return
	}
	for round := 0; r.ackedThrough < opn; round++ {
		deadline := k.Core().Proc().LocalTime() + sim.Microseconds(prepareTimeoutUS)
		if k.WaitUntil(func() bool { return r.ackedThrough >= opn }, deadline) {
			return
		}
		alive = 0
		for _, mgr := range r.g.managers {
			if mgr != me && !d.chip.CoreCrashed(mgr) {
				alive++
			}
		}
		if alive == 0 || round >= 3 {
			d.stats.SoloCommits++
			return
		}
	}
}

// --- Backup replication ---------------------------------------------------

func (d *System) handlePrepare(k *kernel.Kernel, r *replica, m mailbox.Msg) {
	view, opnum := m.U32(0), m.U32(1)
	o := op{kind: m.U32(2), page: m.U32(3), a: m.U32(4), b: m.U32(5)}
	if view > r.view {
		// The StartView is still behind us in some queue; adopt the view —
		// the new primary is provably elected if it prepares ops in it.
		r.view = view
		r.pendingView = view
		r.status = statusNormal
		if r.fetching && r.fetchMode == fetchViewChange {
			// We were catching up to take over, but someone else won the
			// election: finishing the chain must now ack the real primary,
			// not send a bogus StartView of our own.
			r.fetchMode = fetchAck
			r.fetchAckTo = m.From
		}
	}
	if view < r.view || r.status != statusNormal {
		// Leftover from a dead primary's last moments: discarding (rather
		// than applying) keeps the log a prefix of the new primary's.
		return
	}
	switch {
	case opnum == r.opnum+1:
		r.appendOp(o)
		if r.fetching && r.opnum >= r.fetchTarget {
			// The in-order prepares closed the gap the chain was fetching.
			d.finishFetch(k, r)
		}
	case opnum <= r.opnum:
		// Duplicate; the cumulative ack below re-covers it.
	default:
		// Gap: a commit outran a catch-up in flight. Extend the chain and
		// ack once it completes.
		d.startFetch(k, r, m.From, opnum, fetchAck, m.From)
		return
	}
	d.sendPrepareOK(k, r, m.From)
}

func (d *System) sendPrepareOK(k *kernel.Kernel, r *replica, to int) {
	d.stats.PrepareOKs++
	var p [8]byte
	mailbox.PutU32(p[:], 0, r.view)
	mailbox.PutU32(p[:], 1, r.opnum)
	k.Send(to, msgPrepareOK, p[:])
}

// --- Catch-up (GetOp chain) ----------------------------------------------

func (d *System) startFetch(k *kernel.Kernel, r *replica, peer int, upTo uint32, mode, ackTo int) {
	prev := r.fetchPeer
	if upTo > r.fetchTarget {
		r.fetchTarget = upTo
	}
	r.fetchPeer = peer
	if mode > r.fetchMode {
		r.fetchMode = mode
	}
	r.fetchAckTo = ackTo
	if !r.fetching {
		r.fetching = true
		r.fetchTries = 0
		d.sendGetOp(k, r)
		return
	}
	if peer != prev || d.chip.CoreCrashed(prev) {
		// The chain we were riding is broken (its source died, or a newer
		// caller knows a better source): re-kick against the new peer
		// instead of waiting on an OpEntry that will never come.
		r.fetchTries = 0
		d.sendGetOp(k, r)
	}
}

func (d *System) sendGetOp(k *kernel.Kernel, r *replica) {
	r.fetchLast = k.Core().Proc().LocalTime()
	var p [4]byte
	mailbox.PutU32(p[:], 0, r.opnum+1)
	k.Send(r.fetchPeer, msgGetOp, p[:])
}

// finishFetch tears down the chain state and runs the completion action the
// chain was started for.
func (d *System) finishFetch(k *kernel.Kernel, r *replica) {
	r.fetching = false
	r.fetchTries = 0
	mode, ackTo := r.fetchMode, r.fetchAckTo
	r.fetchMode, r.fetchTarget, r.fetchAckTo = fetchNone, 0, -1
	switch mode {
	case fetchViewChange:
		d.finishViewChange(k, r)
	case fetchAck:
		if ackTo >= 0 && ackTo != k.ID() && !d.chip.CoreCrashed(ackTo) {
			d.sendPrepareOK(k, r, ackTo)
		}
	}
}

// retryFetch is the tick watchdog's slow path: the chain went quiet past the
// retry deadline. Re-ask the source if it is still alive; otherwise rotate to
// an alive manager (any replica with the ops can serve GetOp). A chain that
// keeps dying is abandoned — except a view-change catch-up with a live
// source, which must complete or the directory loses committed ops.
func (d *System) retryFetch(k *kernel.Kernel, r *replica) {
	me := k.ID()
	srcAlive := r.fetchPeer >= 0 && !d.chip.CoreCrashed(r.fetchPeer)
	if r.fetchTries >= fetchGiveUpTries && !(r.fetchMode == fetchViewChange && srcAlive) {
		// The target ops are likely gone with their holder; a later prepare
		// or StartView from the (new) primary restarts catch-up from there.
		d.stats.FetchAborts++
		d.finishFetch(k, r)
		return
	}
	r.fetchTries++
	if !srcAlive {
		alive := make([]int, 0, len(r.g.managers))
		for _, mgr := range r.g.managers {
			if mgr != me && !d.chip.CoreCrashed(mgr) {
				alive = append(alive, mgr)
			}
		}
		if len(alive) == 0 {
			d.stats.FetchAborts++
			d.finishFetch(k, r)
			return
		}
		r.fetchPeer = alive[r.fetchTries%len(alive)]
	}
	d.stats.FetchRetries++
	d.sendGetOp(k, r)
}

func (d *System) handleGetOp(k *kernel.Kernel, r *replica, m mailbox.Msg) {
	opnum := m.U32(0)
	if opnum == 0 || opnum > r.opnum {
		return
	}
	o := r.log[opnum-1]
	var p [20]byte
	mailbox.PutU32(p[:], 0, opnum)
	mailbox.PutU32(p[:], 1, o.kind)
	mailbox.PutU32(p[:], 2, o.page)
	mailbox.PutU32(p[:], 3, o.a)
	mailbox.PutU32(p[:], 4, o.b)
	k.Send(m.From, msgOpEntry, p[:])
}

func (d *System) handleOpEntry(k *kernel.Kernel, r *replica, m mailbox.Msg) {
	opnum := m.U32(0)
	if opnum == r.opnum+1 {
		r.appendOp(op{kind: m.U32(1), page: m.U32(2), a: m.U32(3), b: m.U32(4)})
		r.fetchTries = 0 // the chain is moving again
	}
	if !r.fetching {
		return
	}
	if r.opnum < r.fetchTarget {
		d.sendGetOp(k, r)
		return
	}
	d.finishFetch(k, r)
}

// --- View change (failover) ----------------------------------------------

// tick is the failure detector, run on every manager's timer tick: probe
// the (current or being-elected) primary's liveness bit and, when it died,
// let the next alive manager in view order elect itself. Electing only the
// designated successor keeps concurrent elections from dueling.
func (d *System) tick(k *kernel.Kernel, r *replica) {
	me := k.ID()
	if r.fetching && k.Core().Proc().LocalTime()-r.fetchLast > sim.Microseconds(fetchRetryUS) {
		d.retryFetch(k, r)
	}
	v := r.view
	if r.status == statusViewChange && r.pendingView > v {
		v = r.pendingView
	}
	cur := r.g.primaryOf(v)
	if cur == me {
		if r.status == statusViewChange &&
			k.Core().Proc().LocalTime()-r.changeStart > sim.Microseconds(changeRetryUS) {
			// Solicitation stalled (a peer died mid-election): start over
			// against the currently-alive peer set.
			d.startViewChange(k, r, r.pendingView)
		}
		return
	}
	if d.chip.ProbeAlive(me, cur) {
		return
	}
	nv := v + 1
	for d.chip.CoreCrashed(r.g.primaryOf(nv)) {
		nv++
	}
	if r.g.primaryOf(nv) != me {
		return // the designated successor takes it from here
	}
	d.startViewChange(k, r, nv)
}

func (d *System) startViewChange(k *kernel.Kernel, r *replica, v uint32) {
	me := k.ID()
	r.status = statusViewChange
	r.pendingView = v
	r.changeStart = k.Core().Proc().LocalTime()
	r.dvAcks = 0
	r.dvNeeded = 0
	r.bestOp = r.opnum
	r.bestFrom = -1
	for _, mgr := range r.g.managers {
		if mgr == me || d.chip.CoreCrashed(mgr) {
			continue
		}
		r.dvNeeded++
		var p [8]byte
		mailbox.PutU32(p[:], 0, v)
		mailbox.PutU32(p[:], 1, r.opnum)
		k.Send(mgr, msgDoView, p[:])
	}
	if r.dvNeeded == 0 {
		d.finishViewChange(k, r)
	}
}

func (d *System) handleDoView(k *kernel.Kernel, r *replica, m mailbox.Msg) {
	v := m.U32(0)
	if v > r.view && (r.status != statusViewChange || v >= r.pendingView) {
		r.status = statusViewChange
		r.pendingView = v
	}
	var p [8]byte
	mailbox.PutU32(p[:], 0, v)
	mailbox.PutU32(p[:], 1, r.opnum)
	k.Send(m.From, msgDoViewOK, p[:])
}

func (d *System) handleDoViewOK(k *kernel.Kernel, r *replica, m mailbox.Msg) {
	v, peerOp := m.U32(0), m.U32(1)
	if r.status != statusViewChange || v != r.pendingView {
		return
	}
	r.dvAcks++
	if peerOp > r.bestOp {
		r.bestOp = peerOp
		r.bestFrom = m.From
	}
	if r.dvAcks >= r.dvNeeded {
		r.dvNeeded = 1 << 30 // disarm: late duplicates must not re-trigger
		if r.bestOp > r.opnum {
			// The peer saw ops our dead primary never replicated to us;
			// adopt its log before taking over.
			d.startFetch(k, r, r.bestFrom, r.bestOp, fetchViewChange, -1)
		} else {
			d.finishViewChange(k, r)
		}
	}
}

func (d *System) finishViewChange(k *kernel.Kernel, r *replica) {
	me := k.ID()
	r.view = r.pendingView
	r.status = statusNormal
	d.stats.ViewChanges++
	d.chip.Tracer().Emit(k.Core().Now(), me, trace.KindDirFailover, uint64(r.view), uint64(r.opnum))
	for _, mgr := range r.g.managers {
		if mgr == me || d.chip.CoreCrashed(mgr) {
			continue
		}
		var p [8]byte
		mailbox.PutU32(p[:], 0, r.view)
		mailbox.PutU32(p[:], 1, r.opnum)
		k.Send(mgr, msgStartView, p[:])
	}
}

func (d *System) handleStartView(k *kernel.Kernel, r *replica, m mailbox.Msg) {
	v, opnum := m.U32(0), m.U32(1)
	if v < r.view {
		return
	}
	r.view = v
	r.pendingView = v
	r.status = statusNormal
	if opnum > r.opnum {
		d.startFetch(k, r, m.From, opnum, fetchAck, m.From)
	}
}

// --- Diagnostics ----------------------------------------------------------

// DumpDiagnostics writes the directory's replica and protocol state for the
// watchdog report. Host-side reads only; charges no simulated time.
func (d *System) DumpDiagnostics(w io.Writer) {
	for _, g := range d.groups {
		d.dumpGroup(w, g)
	}
	s := d.stats
	fmt.Fprintf(w, "  dir stats: commits=%d solo=%d view-changes=%d reclaims=%d orphans=%d fenced=%d redirects=%d timeouts=%d fetch-retries=%d fetch-aborts=%d\n",
		s.Commits, s.SoloCommits, s.ViewChanges, s.Reconstructions, s.OrphanReclaims,
		s.Fenced, s.Redirects, s.Timeouts, s.FetchRetries, s.FetchAborts)
}

func (d *System) dumpGroup(w io.Writer, g *group) {
	if len(d.groups) == 1 {
		fmt.Fprintf(w, "repldir: managers=%v\n", g.managers)
	} else {
		fmt.Fprintf(w, "repldir: chip %d managers=%v\n", g.index, g.managers)
	}
	for i, mgr := range g.managers {
		r := d.replicas[mgr]
		if r == nil {
			fmt.Fprintf(w, "  replica %d (core %d): not attached\n", i, mgr)
			continue
		}
		alive := "alive"
		if d.chip.CoreCrashed(mgr) {
			alive = "CRASHED"
		}
		status := "normal"
		if r.status == statusViewChange {
			status = fmt.Sprintf("view-change->%d", r.pendingView)
		}
		maxEpoch := uint32(0)
		//metalsvm:deterministic — only the maximum is taken from the range
		for _, st := range r.state {
			if st.epoch > maxEpoch {
				maxEpoch = st.epoch
			}
		}
		fmt.Fprintf(w, "  replica %d (core %d): %s view=%d status=%s opnum=%d commit=%d acked=%d pages=%d max-epoch=%d",
			i, mgr, alive, r.view, status, r.opnum, r.commit, r.ackedThrough, len(r.state), maxEpoch)
		if len(r.log) > 0 {
			o := r.log[len(r.log)-1]
			fmt.Fprintf(w, " last-op=%s(page %d)", opName(o.kind), o.page)
		}
		fmt.Fprintln(w)
	}
}
