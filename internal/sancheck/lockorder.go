package sancheck

import (
	"fmt"
	"strings"

	"metalsvm/internal/cycles"
	"metalsvm/internal/sim"
)

// This file is the lockdep-style lock-order analyzer. Every acquisition
// while other locks are held adds held→new edges to a global acquisition-
// order graph spanning SVM lock words and test-and-set registers. A cycle
// in that graph is a potential deadlock — two cores that interleave the
// cyclic acquisitions the wrong way will block forever — and is reported at
// Finalize even when this particular run completed. Holding any lock while
// entering a kernel barrier is flagged immediately: the barrier needs every
// member to arrive, so a peer contending for the held lock never will.
//
// The SVM layer itself never nests the scarce TAS registers (a register is
// held only for the instant it takes to flip a lock word, and is released
// before the lock-acquire event fires), so svm→tas edges from faults inside
// critical sections cannot close a cycle; cycles come from workload-level
// SVM lock nesting.

type loSite struct {
	core int
	at   sim.Time
}

type lockOrderState struct {
	edges map[cycles.Edge[token]]loSite
	// barrierReported dedups lock-across-barrier findings per lock.
	barrierReported map[token]bool
}

func newLockOrderState() *lockOrderState {
	return &lockOrderState{
		edges:           make(map[cycles.Edge[token]]loSite),
		barrierReported: make(map[token]bool),
	}
}

func (lo *lockOrderState) onAcquire(k *Checker, core int, t token, at sim.Time) {
	for _, h := range k.held[core] {
		if h == t {
			continue // recursive acquisition of the same lock
		}
		e := cycles.Edge[token]{From: h, To: t}
		if _, ok := lo.edges[e]; !ok {
			lo.edges[e] = loSite{core: core, at: at}
		}
	}
}

func (lo *lockOrderState) onBarrier(k *Checker, core int, at sim.Time) {
	for _, h := range k.held[core] {
		if lo.barrierReported[h] {
			continue
		}
		lo.barrierReported[h] = true
		k.report(Finding{Kind: LockAcrossBarrier, Core: core, At: at,
			Detail: fmt.Sprintf("core %d entered a barrier holding %v "+
				"(a contender for it can never arrive)", core, h)})
	}
}

// finalize reports the acquisition-order graph's cycles, each once per
// distinct node set, in deterministic order.
func (lo *lockOrderState) finalize(k *Checker) {
	cycles.Find(lo.edges, token.compare, func(cycle []token) {
		var b strings.Builder
		for _, t := range cycle {
			fmt.Fprintf(&b, "%v -> ", t)
		}
		fmt.Fprintf(&b, "%v", cycle[0])
		// Attribute the finding to the edge closing the cycle.
		site := lo.edges[cycles.Edge[token]{From: cycle[len(cycle)-1], To: cycle[0]}]
		k.report(Finding{Kind: LockOrderCycle, Core: site.core, At: site.at,
			Detail: fmt.Sprintf("lock acquisition order cycle: %s (potential deadlock)", b.String())})
	})
}
