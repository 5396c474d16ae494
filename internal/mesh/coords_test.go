package mesh_test

import (
	"testing"

	"metalsvm/internal/mesh"
	"metalsvm/internal/scc"
)

// TestCoordTableMatchesArithmetic checks the coordinate table New builds
// against the division it replaced, (core/CoresPerTile) % Width and
// / Width, for every core of the paper chip, an 8x8x2 grid and a chip of a
// two-chip machine, and HopsCores against Hops of those positions.
func TestCoordTableMatchesArithmetic(t *testing.T) {
	for name, topo := range map[string]scc.Config{
		"paper":     scc.PaperSCC(),
		"8x8x2":     scc.Grid(8, 8, 2),
		"2 x 4x2x2": scc.MultiChip(2, scc.Grid(4, 2, 2)),
	} {
		cfg := topo.Normalized().Mesh
		m, err := mesh.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		at := func(core int) mesh.Coord {
			tile := core / cfg.CoresPerTile
			return mesh.Coord{X: tile % cfg.Width, Y: tile / cfg.Width}
		}
		for a := 0; a < m.Cores(); a++ {
			if got := m.CoordOfCore(a); got != at(a) {
				t.Fatalf("%s: CoordOfCore(%d) = %v, want %v", name, a, got, at(a))
			}
			for b := 0; b < m.Cores(); b++ {
				if got, want := m.HopsCores(a, b), mesh.Hops(at(a), at(b)); got != want {
					t.Fatalf("%s: HopsCores(%d, %d) = %d, want %d", name, a, b, got, want)
				}
			}
		}
	}
}

// TestUntabulatedMeshPanics checks a grid too large to tabulate: New still
// returns it, without allocating a table (the overflowing shape's core
// count wraps to 0), and asking it for a position panics.
func TestUntabulatedMeshPanics(t *testing.T) {
	for _, shape := range [][3]int{{300, 300, 1}, {1 << 32, 1 << 32, 1}} {
		cfg := mesh.DefaultConfig()
		cfg.Width, cfg.Height, cfg.CoresPerTile = shape[0], shape[1], shape[2]
		m, err := mesh.New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: CoordOfCore(0) did not panic", shape)
				}
			}()
			m.CoordOfCore(0)
		}()
	}
}
