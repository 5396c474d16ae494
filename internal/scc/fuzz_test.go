package scc

import (
	"testing"

	"metalsvm/internal/sim"
)

// FuzzTopology checks the topology constructors on arbitrary shapes, the
// way sccbench's -grid WxHxC and -chips N reach them: Grid, MultiChip,
// Normalized and Validate never panic, and a configuration Validate
// accepts with at most 64 cores builds with New. The seed corpus in
// testdata/fuzz holds the paper chip, two coupled 2x2x2 chips, and the
// zero, negative, one-core and overflowing shapes the command line rejects.
func FuzzTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, h, c, chips int) {
		grid := Grid(w, h, c)
		for _, cfg := range []Config{grid.Normalized(), MultiChip(chips, grid).Normalized()} {
			if Validate(cfg) != nil {
				continue
			}
			if cfg.Chips*cfg.Mesh.Width*cfg.Mesh.Height*cfg.Mesh.CoresPerTile > 64 {
				continue
			}
			if _, err := New(sim.NewEngine(), cfg); err != nil {
				t.Fatalf("%dx%dx%d x %d chips: Validate accepts it, New refuses: %v", w, h, c, cfg.Chips, err)
			}
		}
	})
}
