package cycles

import (
	"cmp"
	"fmt"
	"testing"
)

// TestFind: on a graph with the cycles 1→2→1, 2→3→2 and 1→2→3→1, the
// search reports each node set once, in node order, as the path from the
// back edge's target; a self-contained cycle reached only through another
// node (4→5→4, entered from 3) is reported too, and acyclic tails are not.
func TestFind(t *testing.T) {
	edges := map[Edge[int]]bool{}
	for _, e := range [][2]int{{1, 2}, {2, 1}, {2, 3}, {3, 2}, {3, 1}, {3, 4}, {4, 5}, {5, 4}, {5, 6}} {
		edges[Edge[int]{e[0], e[1]}] = true
	}
	var got []string
	Find(edges, cmp.Compare[int], func(cycle []int) { got = append(got, fmt.Sprint(cycle)) })
	want := "[[1 2] [1 2 3] [2 3] [4 5]]"
	if fmt.Sprint(got) != want {
		t.Fatalf("cycles %v, want %v", got, want)
	}
}
