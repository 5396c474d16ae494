package main

import (
	"fmt"
	"testing"

	"metalsvm/internal/faults"
)

// TestPlanSweep plans kvstore, -check and -chaos under every preset on every
// -grid WxHxC with W and H in 1..4, C in 1..2 and at most 16 cores per chip,
// at -chips 1 and 2. Each combination must plan cleanly or be rejected, and
// none may panic. It only plans, so it runs in a blink; the run itself is
// what the plan's rules (core.DirectoryWorkers, kvFits) keep from panicking.
func TestPlanSweep(t *testing.T) {
	type planner struct {
		name string
		plan func(o *options) ([]cell, error)
	}
	planners := []planner{
		{"kvstore", kvPlan},
		{"-check", func(o *options) ([]cell, error) { return raceSuite.cells(o.topo), nil }},
	}
	for _, preset := range faults.Presets() {
		planners = append(planners, planner{"-chaos 1," + preset, func(o *options) ([]cell, error) {
			o.chaos = "1," + preset
			return planChaos(o)
		}})
	}
	planned, rejected := 0, 0
	for chips := 1; chips <= 2; chips++ {
		for w := 1; w <= 4; w++ {
			for h := 1; h <= 4; h++ {
				for c := 1; c <= 2; c++ {
					if w*h*c > 16 {
						continue
					}
					grid := fmt.Sprintf("%dx%dx%d", w, h, c)
					topo, err := parseTopology(chips, grid)
					if err != nil {
						continue // fewer than two cores: no mode runs there
					}
					for _, m := range planners {
						o := &options{rounds: 5, iters: 1, kvRequests: 50, kvSeed: 1, topo: topo}
						cells, err := func() (cells []cell, err error) {
							defer func() {
								if r := recover(); r != nil {
									t.Errorf("-chips %d -grid %s %s: plan panicked: %v", chips, grid, m.name, r)
								}
							}()
							return m.plan(o)
						}()
						switch {
						case err != nil && cells != nil:
							t.Errorf("-chips %d -grid %s %s: rejected (%v) with %d cells", chips, grid, m.name, err, len(cells))
						case err != nil:
							rejected++
						case len(cells) == 0:
							t.Errorf("-chips %d -grid %s %s: planned no cells", chips, grid, m.name)
						default:
							planned++
						}
					}
				}
			}
		}
	}
	t.Logf("%d combinations planned, %d rejected", planned, rejected)
}
