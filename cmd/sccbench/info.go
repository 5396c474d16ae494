package main

import (
	"fmt"

	"metalsvm/internal/bench"
	"metalsvm/internal/cache"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/stats"
)

// info prints the simulated platform's geometry and latency reference — the
// quick orientation the SCC Programmer's Guide tables give for the real
// chip.
func info(*options) bool {
	cfg := bench.ShrunkChip(scc.PaperSCC())
	chip, err := scc.New(sim.NewEngine(), cfg)
	if err != nil {
		panic(err)
	}
	m := chip.Mesh()

	fmt.Println("Single-chip Cloud Computer (simulated)")
	fmt.Printf("  %d cores on a %dx%d tile mesh (%d cores/tile)\n",
		m.Cores(), m.Config().Width, m.Config().Height, m.Config().CoresPerTile)
	fmt.Printf("  clocks: core %.0f MHz, mesh %.0f MHz, memory %.0f MHz\n",
		1e6/float64(cfg.Core.Clock.PeriodPS),
		1e6/float64(cfg.Mesh.Clock.PeriodPS),
		1e6/float64(cfg.MemClock.PeriodPS))
	fmt.Printf("  caches: L1 %d KiB/%d-way (write-through), L2 %d KiB/%d-way (write-back, no write-allocate)\n",
		cfg.Core.L1Size>>10, cfg.Core.L1Ways, cfg.Core.L2Size>>10, cfg.Core.L2Ways)
	fmt.Printf("  system interface (GIC) at tile (%d,%d)\n\n", cfg.GICPort.X, cfg.GICPort.Y)

	// Tile map, north row first.
	fmt.Println("tile map (cores per tile; * marks a memory controller column):")
	for y := m.Config().Height - 1; y >= 0; y-- {
		fmt.Printf("  y=%d ", y)
		for x := 0; x < m.Config().Width; x++ {
			tile := y*m.Config().Width + x
			lo := tile * m.Config().CoresPerTile
			mark := " "
			for mc := 0; mc < m.ControllerCount(); mc++ {
				if p := m.MemoryController(mc); p.X == x && p.Y == y {
					mark = "*"
				}
			}
			fmt.Printf(" [%2d,%2d]%s", lo, lo+1, mark)
		}
		fmt.Println()
	}

	fmt.Println("\nlatency reference (core 0 unless noted):")
	t := stats.NewTable("operation", "latency")
	clk := cfg.Core.Clock
	cyc := func(d sim.Duration) string {
		return fmt.Sprintf("%6.1f ns  (%d core cycles)", float64(d)/1000, clk.ToCycles(d))
	}
	t.AddRow("L1 hit", cyc(clk.Cycles(cfg.Core.L1HitCycles)))
	t.AddRow("L2 hit", cyc(clk.Cycles(cfg.Core.L2HitCycles)))
	var line [32]byte
	t.AddRow("DDR line read (own controller)", cyc(chip.FetchLine(0, chip.Layout().PrivateBase(0), line[:])))
	t.AddRow("DDR line read (far controller)", cyc(chip.FetchLine(0, chip.Layout().PrivateBase(47), line[:])))
	t.AddRow("DDR word write-through", cyc(chip.WriteMem(0, chip.Layout().PrivateBase(0), line[:8])))
	t.AddRow("DDR combined line write (WCB drain)", cyc(chip.WriteMaskedLine(0, cache.Flushed{
		LineAddr: chip.Layout().PrivateBase(0), Mask: 0xffffffff})))
	t.AddRow("mailbox slot check", cyc(clk.Cycles(cfg.Lat.MailCheckCycles)))
	fmt.Print(t)

	fmt.Println("\nper-core MPB layout (8 KiB):")
	t = stats.NewTable("region", "offset", "bytes")
	t.AddRow("mailbox slots (one line per sender)", "0", fmt.Sprint(chip.ScratchpadMPBOffset()))
	t.AddRow("SVM scratchpad (16-bit frame per page)",
		fmt.Sprint(chip.ScratchpadMPBOffset()),
		fmt.Sprint(chip.GeneralMPBOffset()-chip.ScratchpadMPBOffset()))
	t.AddRow("general area (RCCE flags + staging)",
		fmt.Sprint(chip.GeneralMPBOffset()),
		fmt.Sprint(chip.GeneralMPBSize()))
	fmt.Print(t)

	fmt.Println("\noff-die memory layout:")
	t = stats.NewTable("region", "base", "size")
	t.AddRow("private (per core)", "0x0 + core*size", fmt.Sprintf("%d MiB", cfg.PrivateMemPerCore>>20))
	t.AddRow("shared (SVM pool)", fmt.Sprintf("%#x", chip.Layout().SharedBase()),
		fmt.Sprintf("%d MiB (%d pages)", cfg.SharedMem>>20, chip.Layout().SharedFrames()))
	fmt.Print(t)
	return true
}
