package kvstore

import (
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/metrics"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// Request outcomes — the complete taxonomy. Every issued request resolves
// to exactly one of these.
type outcome uint8

const (
	oApplied outcome = iota // acknowledged (or satisfied from the replica)
	oShed                   // refused by admission control, no state change
	oExpired                // deadline passed unacknowledged ("maybe applied")
)

// keyAudit is the per-key ledger a client keeps for its own (single-writer)
// keys: the last acknowledged put and the timed-out sequences issued since,
// any of which may still land from an in-flight frame.
type keyAudit struct {
	lastApplied uint64
	maybes      []uint64
}

// replyState matches server replies to the in-flight request. All attempts
// of one request share a token, so a late reply to an earlier attempt still
// resolves the request (the server's sequence check already made the apply
// idempotent).
type replyState struct {
	token  uint32
	got    bool
	status uint32
	word   uint64
}

// clientState is one client rank's host-side bookkeeping (disjoint between
// ranks, like serverState).
type clientState struct {
	rng      rng
	keys     []uint32 // owned mutable keys (this client is their only writer)
	nextSeq  []uint64 // per owned key
	chainPos []int    // per shard: how far failover has walked the chain
	audit    []keyAudit
	reply    replyState
	tokens   uint32

	nextArrivalUS float64 // open-loop schedule position

	// Counters for the report.
	Issued, Applied, Shed, Expired  uint64
	Timeouts, Retries, Failovers    uint64
	Hedged, DirectReads, ReadErrors uint64
	windows                         []uint64
	latGet, latPut, latHot          metrics.Histogram
	startUS, endUS                  float64
}

// runClient runs this rank's share of the request load (its reply handler
// was registered back in Main) and notifies every server when it is done.
func (a *App) runClient(h *svm.Handle, rank int, mutBase, hotBase uint32) {
	p := a.p
	k := h.Kernel()
	c := k.Core()
	st := &a.cl[rank]
	st.rng.s = mix64(p.Seed ^ (0x6b76 + uint64(rank)*0x9e3779b97f4a7c15))
	for key := rank; key < keyCount; key += a.clients {
		st.keys = append(st.keys, uint32(key))
	}
	st.nextSeq = make([]uint64, len(st.keys))
	st.audit = make([]keyAudit, len(st.keys))
	st.chainPos = make([]int, shards)

	share := p.Requests / a.clients
	if rank < p.Requests%a.clients {
		share++
	}
	start := c.Now()
	st.startUS = start.Microseconds()

	for i := 0; i < share; i++ {
		// Pacing: open loop follows the exponential arrival schedule even
		// when it has fallen behind (issuing immediately then — client-side
		// queueing); closed loop thinks briefly after each resolution.
		if p.OpenLoop {
			st.nextArrivalUS += st.rng.expUS(p.ArrivalUS)
			if at := start + sim.Microseconds(st.nextArrivalUS); c.Now() < at {
				k.WaitUntil(func() bool { return false }, at)
			}
		} else {
			c.Cycles(st.rng.next() % thinkCycles)
		}

		roll := st.rng.permille()
		switch {
		case roll < hotPermille:
			a.doHotGet(st, k, hotBase)
		case roll < hotPermille+putPermille && len(st.keys) > 0:
			ki := int(st.rng.next() % uint64(len(st.keys)))
			st.nextSeq[ki]++
			a.doPut(st, k, ki)
		default:
			key := uint32(st.rng.next() % uint64(keyCount))
			a.doGet(st, k, key)
		}
	}
	st.endUS = c.Now().Microseconds()

	// Tell every server this client is done; servers drain their queues and
	// leave their serve loops once all clients have said so.
	for si := 0; si < servers; si++ {
		k.Send(a.workers[a.clients+si], msgKVStop, nil)
	}
}

// record books one resolved request: outcome counters, the goodput window
// and the latency histogram (applied outcomes only — tail latency of work
// that succeeded).
func (st *clientState) record(out outcome, issue, end sim.Time, hist *metrics.Histogram) {
	switch out {
	case oApplied:
		st.Applied++
		w := int((end.Microseconds() - st.startUS) / WindowUS)
		for len(st.windows) <= w {
			st.windows = append(st.windows, 0)
		}
		st.windows[w]++
		hist.Observe(uint64(end-issue) / 1000) // ps → ns
	case oShed:
		st.Shed++
	case oExpired:
		st.Expired++
	}
}

// doPut issues put #seq on owned key ki and folds the outcome into the
// per-key audit ledger.
func (a *App) doPut(st *clientState, k *kernel.Kernel, ki int) {
	key, seq := st.keys[ki], st.nextSeq[ki]
	issue := k.Core().Now()
	out, anyTimeout, _ := a.execute(st, k, opPut, key, seq)
	st.record(out, issue, k.Core().Now(), &st.latPut)

	ka := &st.audit[ki]
	switch {
	case out == oApplied:
		// Acknowledged: everything older is superseded. Smaller in-flight
		// sequences can never land over it (the server's sequence check
		// refuses them), so the maybe set resets.
		ka.lastApplied = seq
		ka.maybes = ka.maybes[:0]
	case anyTimeout:
		// Expired, or shed after a timed-out attempt: the unacknowledged
		// frame may still be delivered and applied after this run's
		// bookkeeping moved on.
		ka.maybes = append(ka.maybes, seq)
	}
}

// doGet issues a server read of a mutable key and self-checks the returned
// word against its embedded sequence.
func (a *App) doGet(st *clientState, k *kernel.Kernel, key uint32) {
	issue := k.Core().Now()
	out, _, word := a.execute(st, k, opGet, key, 0)
	st.record(out, issue, k.Core().Now(), &st.latGet)
	if out == oApplied && word != 0 && word != encode(key, wordSeq(word)) {
		st.ReadErrors++
	}
}

// doHotGet reads a hot key: either directly from the L2-cached read-only
// replica, or through a server with the replica as the hedge when the
// server misses the attempt timeout.
func (a *App) doHotGet(st *clientState, k *kernel.Kernel, hotBase uint32) {
	c := k.Core()
	key := uint32(st.rng.next() % uint64(keyCount))
	issue := c.Now()
	if st.rng.permille() >= hedgePermille {
		// Direct replica read: no ownership, no messages — the L2 path.
		st.DirectReads++
		if c.Load64(hotBase+key*8) != hotValue(key) {
			st.ReadErrors++
		}
		st.record(oApplied, issue, c.Now(), &st.latHot)
		return
	}
	out, _, word := a.execute(st, k, opHotGet, key, 0)
	if out == oExpired {
		// Hedge: the server blew the deadline budget, the replica cannot.
		st.Hedged++
		word = c.Load64(hotBase + key*8)
		out = oApplied
	}
	if out == oApplied && word != hotValue(key) {
		st.ReadErrors++
	}
	st.record(out, issue, c.Now(), &st.latHot)
}

// maxBackoffShift caps the exponential backoff doubling.
const maxBackoffShift = 5

// execute runs the request FSM: send to the shard's current chain server,
// wait out the attempt timeout, retry with jittered exponential backoff
// under the overall deadline, and fail over along the chain when a liveness
// probe says the target core crashed. Returns the outcome, whether any
// attempt timed out (the "maybe applied" signal for puts), and the reply
// word.
func (a *App) execute(st *clientState, k *kernel.Kernel, op int, key uint32, seq uint64) (outcome, bool, uint64) {
	c := k.Core()
	shard := shardOf(key)
	overall := c.Now() + sim.Microseconds(deadlineUS)

	st.tokens++
	st.reply = replyState{token: st.tokens}
	var req [24]byte
	mailbox.PutU32(req[:], 0, uint32(op))
	mailbox.PutU32(req[:], 1, key)
	mailbox.PutU32(req[:], 2, uint32(seq))
	mailbox.PutU32(req[:], 3, st.tokens)
	mailbox.PutU32(req[:], 4, uint32(uint64(overall)))
	mailbox.PutU32(req[:], 5, uint32(uint64(overall)>>32))

	anyTimeout := false
	st.Issued++
	for attempt := 1; ; attempt++ {
		target := a.serverCore(st, shard)
		if !st.reply.got {
			k.Send(target, msgKVRequest, req[:])
		}
		// A blocking Send or the previous backoff may already have burned
		// the deadline; never schedule a wait in the past.
		attDl := c.Now() + sim.Microseconds(attemptUS)
		if attDl > overall {
			attDl = overall
		}
		if attDl < c.Now() {
			attDl = c.Now()
		}
		if k.WaitUntil(func() bool { return st.reply.got }, attDl) {
			if st.reply.status == statusShed {
				return oShed, anyTimeout, 0
			}
			return oApplied, anyTimeout, st.reply.word
		}
		anyTimeout = true
		st.Timeouts++
		if c.Now() >= overall || attempt >= retries {
			return oExpired, anyTimeout, 0
		}
		// Failover: only when the probe says the target is dead — a slow
		// or partitioned-away server keeps its shard, so two live servers
		// never interleave writes to one key.
		if !k.Chip().ProbeAlive(k.ID(), target) {
			st.chainPos[shard]++
			st.Failovers++
		}
		st.Retries++
		shift := attempt - 1
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		boff := backoffCycles << uint(shift)
		c.Cycles(boff/2 + st.rng.next()%(boff/2+1))
	}
}

// serverCore returns the core id of the shard's current chain server.
func (a *App) serverCore(st *clientState, shard int) int {
	si := (primaryOf(shard) + st.chainPos[shard]) % servers
	return a.workers[a.clients+si]
}
