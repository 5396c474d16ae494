package sancheck

import (
	"fmt"
	"sort"
	"strings"

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

type loEdge struct{ from, to token }

type loSite struct {
	core int
	at   sim.Time
}

type lockOrderState struct {
	edges map[loEdge]loSite
	nodes map[token]bool
	// barrierReported dedups lock-across-barrier findings per lock.
	barrierReported map[token]bool
}

func newLockOrderState() *lockOrderState {
	return &lockOrderState{
		edges:           make(map[loEdge]loSite),
		nodes:           make(map[token]bool),
		barrierReported: make(map[token]bool),
	}
}

func (lo *lockOrderState) onAcquire(k *Checker, core int, t token, at sim.Time) {
	lo.nodes[t] = true
	for _, h := range k.held[core] {
		if h == t {
			continue // recursive acquisition of the same lock
		}
		e := loEdge{from: h, to: t}
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

// finalize runs the cycle detection: a DFS over the acquisition-order graph
// in deterministic node order, reporting each back edge's cycle once per
// distinct node set.
func (lo *lockOrderState) finalize(k *Checker) {
	nodes := make([]token, 0, len(lo.nodes))
	//metalsvm:deterministic — keys are collected, then sorted below
	for n := range lo.nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].less(nodes[j]) })

	succs := make(map[token][]token)
	//metalsvm:deterministic — successor lists are sorted below
	for e := range lo.edges {
		succs[e.from] = append(succs[e.from], e.to)
	}
	//metalsvm:deterministic — each list is sorted in place, order-insensitive
	for _, s := range succs {
		sort.Slice(s, func(i, j int) bool { return s[i].less(s[j]) })
	}

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[token]int)
	var stack []token
	seen := make(map[string]bool) // canonical node sets of reported cycles

	var dfs func(t token)
	dfs = func(t token) {
		color[t] = grey
		stack = append(stack, t)
		for _, nxt := range succs[t] {
			switch color[nxt] {
			case white:
				dfs(nxt)
			case grey:
				// Back edge: the cycle is the stack suffix from nxt.
				start := 0
				for i, s := range stack {
					if s == nxt {
						start = i
						break
					}
				}
				lo.reportCycle(k, stack[start:], seen)
			}
		}
		color[t] = black
		stack = stack[:len(stack)-1]
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
		}
	}
}

func (lo *lockOrderState) reportCycle(k *Checker, cycle []token, seen map[string]bool) {
	// Canonicalize by the sorted node set so rotations report once.
	key := make([]token, len(cycle))
	copy(key, cycle)
	sort.Slice(key, func(i, j int) bool { return key[i].less(key[j]) })
	var kb strings.Builder
	for _, t := range key {
		fmt.Fprintf(&kb, "%v;", t)
	}
	if seen[kb.String()] {
		return
	}
	seen[kb.String()] = true

	var b strings.Builder
	for _, t := range cycle {
		fmt.Fprintf(&b, "%v -> ", t)
	}
	fmt.Fprintf(&b, "%v", cycle[0])
	// Attribute the finding to the edge closing the cycle.
	site := lo.edges[loEdge{from: cycle[len(cycle)-1], to: cycle[0]}]
	k.report(Finding{Kind: LockOrderCycle, Core: site.core, At: site.at,
		Detail: fmt.Sprintf("lock acquisition order cycle: %s (potential deadlock)", b.String())})
}
