package rcce

import (
	"fmt"

	"metalsvm/internal/sim"
)

// This file is the iRCCE extension: non-blocking send/receive requests
// driven by an explicit progress engine, as in the iRCCE library the paper
// builds its message-passing Laplace baseline on. Without it, symmetric
// ring exchanges over the blocking calls deadlock — which is exactly why
// the authors wrote iRCCE.

type reqKind int

const (
	sendReq reqKind = iota
	recvReq
)

// Request is one outstanding non-blocking transfer.
type Request struct {
	comm *Comm
	kind reqKind
	me   int // rank
	peer int // rank
	buf  []byte
	off  int
	// staged marks a send chunk deposited and not yet acknowledged idle.
	staged bool
	done   bool
}

// Isend starts a non-blocking send of data from rank me to rank to.
func (c *Comm) Isend(me int, data []byte, to int) *Request {
	if me == to {
		panic("rcce: isend to self")
	}
	return &Request{comm: c, kind: sendReq, me: me, peer: to, buf: data}
}

// Irecv starts a non-blocking receive of len(buf) bytes at rank me from
// rank from.
func (c *Comm) Irecv(me int, buf []byte, from int) *Request {
	if me == from {
		panic("rcce: irecv from self")
	}
	return &Request{comm: c, kind: recvReq, me: me, peer: from, buf: buf, done: len(buf) == 0}
}

// progress attempts one step without blocking and reports whether state
// advanced. Each flag probe charges its MPB access.
func (r *Request) progress() bool {
	if r.done {
		return false
	}
	c := r.comm
	meCore := c.cores[r.me]
	switch r.kind {
	case sendReq:
		toCore := c.cores[r.peer]
		state, _ := c.readFlag(meCore, toCore, r.me)
		if state != flagIdle {
			return false
		}
		if r.staged {
			r.staged = false
			if r.off >= len(r.buf) {
				r.done = true
				return true
			}
		}
		if r.off >= len(r.buf) {
			r.done = true
			return true
		}
		end := r.off + c.slotSize
		if end > len(r.buf) {
			end = len(r.buf)
		}
		c.stage(meCore, c.slotFor(r.me, r.peer), r.buf[r.off:end])
		c.writeFlag(meCore, toCore, r.me, flagReady, uint16(end-r.off))
		r.off = end
		r.staged = true
		return true
	case recvReq:
		fromCore := c.cores[r.peer]
		state, n := c.readFlag(meCore, meCore, r.peer)
		if state != flagReady {
			return false
		}
		if r.off+int(n) > len(r.buf) {
			panic(fmt.Sprintf("rcce: irecv overflow: %d announced, %d left", n, len(r.buf)-r.off))
		}
		c.pull(meCore, fromCore, c.slotFor(r.peer, r.me), r.buf[r.off:r.off+int(n)])
		c.writeFlag(meCore, meCore, r.peer, flagIdle, 0)
		r.off += int(n)
		if r.off == len(r.buf) {
			r.done = true
		}
		return true
	}
	return false
}

// Wait blocks rank me until every request completes, driving progress on
// all of them (the iRCCE push/pull engine). Requests must belong to me.
func (c *Comm) Wait(me int, reqs ...*Request) {
	meCore := c.chip.Core(c.cores[me])
	// The relevant flag-area signals: sends watch the peer's area,
	// receives our own.
	sigs := make([]*sim.Signal, 0, len(reqs))
	seen := map[*sim.Signal]bool{}
	for _, r := range reqs {
		if r.me != me {
			panic("rcce: waiting on a foreign request")
		}
		var s *sim.Signal
		if r.kind == sendReq {
			s = c.flagSig[c.cores[r.peer]]
		} else {
			s = c.flagSig[c.cores[r.me]]
		}
		if !seen[s] {
			seen[s] = true
			sigs = append(sigs, s)
		}
	}
	seqs := make([]uint64, len(sigs))
	for {
		// Snapshot eventcounts before the progress pass: its flag probes
		// park repeatedly, and a flag flipped behind an already-probed
		// request must not strand us in the final wait.
		for i, s := range sigs {
			seqs[i] = s.Seq()
		}
		allDone := true
		progressed := false
		for _, r := range reqs {
			for r.progress() {
				progressed = true
			}
			if !r.done {
				allDone = false
			}
		}
		if allDone {
			return
		}
		if progressed {
			continue
		}
		sim.WaitAnySeq(meCore.Proc(), sigs, seqs)
	}
}
