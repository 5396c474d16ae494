// Package gic models the Global Interrupt Controller that sccKit 1.4
// exposes in the SCC's system FPGA. Its key capability, which the paper's
// event-driven mailbox path depends on, is that an inter-processor
// interrupt carries *which core raised it*, so the receiver's handler can
// check a single mailbox instead of scanning all of them.
//
// The controller here is purely functional (status registers); the chip
// layer schedules delivery with mesh latency and wakes the target core.
//
// Interrupt state is sized from the configured core count: each core owns
// one status bit per possible origin, held in ceil(cores/64) words. The
// SCC's 48 cores fit in one word; multi-chip topologies (512–1024 cores)
// simply use more words per core; a claim skips empty words and visits
// only the set bits of the others. Topology validation (scc.Validate)
// bounds the core count before the controller is built, so New only
// guards against nonsensical arguments.
package gic

import (
	"fmt"
	"math/bits"
)

// Controller holds one IPI status bitset per core. Bit f of core t's
// bitset means "core f has raised an IPI towards core t that t has not
// claimed".
type Controller struct {
	cores int
	words int // status words per core: ceil(cores/64)
	// status is the concatenation of every core's bitset; core t's words
	// are status[t*words : (t+1)*words], origin f lives in word f/64 bit
	// f%64.
	status []uint64
}

// New creates a controller for the given core count. The count is sized by
// the validated topology; the only hard requirement here is that it is
// positive.
func New(cores int) *Controller {
	if cores <= 0 {
		panic(fmt.Sprintf("gic: unsupported core count %d", cores))
	}
	words := (cores + 63) / 64
	return &Controller{cores: cores, words: words, status: make([]uint64, cores*words)}
}

func (g *Controller) check(core int) {
	if core < 0 || core >= g.cores {
		panic(fmt.Sprintf("gic: core %d out of range", core))
	}
}

// set returns core's status words.
func (g *Controller) set(core int) []uint64 {
	return g.status[core*g.words : (core+1)*g.words]
}

// Raise records an IPI from core `from` to core `to`. Raising again before
// the target claims is idempotent (the status bit is already set), exactly
// like the FPGA register.
func (g *Controller) Raise(from, to int) {
	g.check(from)
	g.check(to)
	g.set(to)[from/64] |= 1 << uint(from%64)
}

// ClaimAll reads and clears the full origin set, appending it to origins in
// ascending order. It visits only the set bits, lowest first, so a claim
// costs the number of pending origins, not the word width. Passing a reused
// buffer's origins[:0] keeps the claim free of allocation.
func (g *Controller) ClaimAll(core int, origins []int) []int {
	g.check(core)
	set := g.set(core)
	for w, word := range set {
		if word == 0 {
			continue
		}
		set[w] = 0
		for ; word != 0; word &= word - 1 {
			origins = append(origins, w*64+bits.TrailingZeros64(word))
		}
	}
	return origins
}
