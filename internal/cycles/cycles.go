// Package cycles finds the cycles of a lock acquisition-order graph: the
// one depth-first search behind the static lock-order check
// (internal/analysis's locksite) and the dynamic one (internal/sancheck).
package cycles

import "slices"

// Edge is one acquisition order: To was acquired while holding From.
type Edge[N any] struct{ From, To N }

// Find walks the graph of edges depth first, taking start nodes and each
// node's successors in cmp's order, and calls report for every back edge
// whose cycle's node set has not been reported yet. The cycle is the search
// path from the back edge's target to its source, so the edge from its last
// node to its first closes it.
func Find[N comparable, V any](edges map[Edge[N]]V, cmp func(a, b N) int, report func(cycle []N)) {
	succs := map[N][]N{}
	var nodes []N
	//metalsvm:deterministic — successor lists and nodes are sorted below
	for e := range edges {
		succs[e.From] = append(succs[e.From], e.To)
		nodes = append(nodes, e.From)
	}
	slices.SortFunc(nodes, cmp)
	nodes = slices.Compact(nodes)
	//metalsvm:deterministic — each list is sorted in place, order-insensitive
	for _, s := range succs {
		slices.SortFunc(s, cmp)
	}

	const (
		white = iota
		grey
		black
	)
	color := map[N]int{}
	var stack []N
	var seen [][]N // sorted node sets of reported cycles
	var dfs func(n N)
	dfs = func(n N) {
		color[n] = grey
		stack = append(stack, n)
		for _, nxt := range succs[n] {
			switch color[nxt] {
			case white:
				dfs(nxt)
			case grey:
				cycle := slices.Clone(stack[slices.Index(stack, nxt):])
				set := slices.Clone(cycle)
				slices.SortFunc(set, cmp)
				if !slices.ContainsFunc(seen, func(s []N) bool { return slices.Equal(s, set) }) {
					seen = append(seen, set)
					report(cycle)
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
		}
	}
}
