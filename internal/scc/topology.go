package scc

// Topology construction and validation: Config is the single source of
// truth for machine shape, and everything a caller can get wrong about it
// is checked here — once, centrally — instead of panicking deep inside the
// gic/mailbox/MPB layers.

import (
	"fmt"

	"metalsvm/internal/interchip"
	"metalsvm/internal/mesh"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/phys"
)

// MaxCores bounds the total core count a configuration may declare. The
// limit is a sanity ceiling on simulator resource use (the mailbox keeps
// n^2 receive slots), far above the 512–1024-core scale-out target.
const MaxCores = 1 << 14

// PaperSCC returns the topology the paper evaluates: one 48-core 6x4x2
// chip with the calibrated clocks and latencies. It is DefaultConfig by
// another name — the bit-identical baseline every refactor is measured
// against.
func PaperSCC() Config { return DefaultConfig() }

// Grid returns a single-chip configuration for an arbitrary w x h tile
// grid with the given cores per tile: memory controllers on the grid
// corners (deduplicated on degenerate grids), the system-interface port
// mid-north, the paper's clocks and latencies, and memory and MPB sizes
// scaled so the configuration validates at any size up to MaxCores.
func Grid(w, h, coresPerTile int) Config {
	cfg := DefaultConfig()
	cfg.Mesh.Width = w
	cfg.Mesh.Height = h
	cfg.Mesh.CoresPerTile = coresPerTile
	cfg.Mesh.MemoryControllers = cornerControllers(w, h)
	cfg.GICPort = mesh.Coord{X: w / 2, Y: 0}
	if cores := machineCores(1, w, h, coresPerTile); cores > 0 {
		cfg.PrivateMemPerCore = defaultPrivateMem(cores)
		cfg.SharedMem = alignShared(cfg.SharedMem, len(cfg.Mesh.MemoryControllers))
		cfg.MPBBytes = defaultMPBBytes(cores, cfg.SharedMem)
	}
	return cfg
}

// MultiChip couples chips copies of the base configuration with the
// default inter-chip link (override Config.Link afterwards to change it),
// rescaling the per-core private region, the shared-region alignment and
// the MPB carve-up for the machine's total core and controller counts.
func MultiChip(chips int, base Config) Config {
	base = base.Normalized()
	base.Chips = chips
	if chips > 1 && base.Link == (interchip.Config{}) {
		base.Link = interchip.DefaultConfig()
	}
	total := machineCores(chips, base.Mesh.Width, base.Mesh.Height, base.Mesh.CoresPerTile)
	if total == 0 {
		return base
	}
	if def := defaultPrivateMem(total); base.PrivateMemPerCore > def {
		base.PrivateMemPerCore = def
	}
	base.SharedMem = alignShared(base.SharedMem, chips*len(base.Mesh.MemoryControllers))
	if need := defaultMPBBytes(total, base.SharedMem); base.MPBBytes < need {
		base.MPBBytes = need
	}
	return base
}

// machineCores returns chips x w x h x c, or 0 when a factor is below 1 or
// above MaxCores: Validate rejects that shape, so there is nothing to size,
// and the product could be zero or overflow.
func machineCores(chips, w, h, c int) int {
	for _, f := range [...]int{chips, w, h, c} {
		if f < 1 || f > MaxCores {
			return 0
		}
	}
	return chips * w * h * c
}

// cornerControllers places one memory controller on each grid corner,
// deduplicating the degenerate cases (a 1-wide or 1-tall grid has fewer
// than four distinct corners). The paper's 6x4 chip instead puts its four
// controllers on rows 0 and 2, which DefaultConfig preserves exactly.
func cornerControllers(w, h int) []mesh.Coord {
	corners := []mesh.Coord{
		{X: 0, Y: 0}, {X: w - 1, Y: 0}, {X: 0, Y: h - 1}, {X: w - 1, Y: h - 1},
	}
	var out []mesh.Coord
	for _, c := range corners {
		dup := false
		for _, seen := range out {
			if seen == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// defaultPrivateMem scales the per-core private region so the machine's
// flat 32-bit physical address space holds every core's region with room
// for the shared pool: the paper's 16 MiB up to 128 cores, halving as the
// machine grows.
func defaultPrivateMem(totalCores int) uint32 {
	switch {
	case totalCores <= 128:
		return 16 << 20
	case totalCores <= 256:
		return 8 << 20
	case totalCores <= 512:
		return 4 << 20
	case totalCores <= 1024:
		return 2 << 20
	default:
		return 1 << 20
	}
}

// alignShared rounds a shared-region size down to a multiple of
// controllers*PageSize so the region stripes evenly (never below one frame
// per controller).
func alignShared(shared uint32, controllers int) uint32 {
	unit := uint32(controllers) * pgtable.PageSize
	if shared < unit {
		return unit
	}
	return shared - shared%unit
}

// defaultMPBBytes sizes the per-core message-passing buffer for the
// machine: one line-sized mailbox slot per possible sender, the SVM
// scratchpad share, and at least 4 KiB of general (RCCE) area, rounded up
// to a 4 KiB multiple and never below the SCC's 8 KiB.
func defaultMPBBytes(totalCores int, shared uint32) int {
	sharedPages := int(shared / pgtable.PageSize)
	scratch := (sharedPages + totalCores - 1) / totalCores * 2
	need := totalCores*phys.CacheLine + scratch + 4096
	need = (need + 4095) &^ 4095
	if need < phys.MPBBytesPerCore {
		return phys.MPBBytesPerCore
	}
	return need
}

// Normalized returns cfg with the zero-value defaults resolved: Chips 0 →
// 1, MPBBytes 0 → phys.MPBBytesPerCore, and a zero Link replaced by
// interchip.DefaultConfig() on multi-chip machines. New applies it before
// validating, so callers only set the fields they mean to change.
func (cfg Config) Normalized() Config {
	if cfg.Chips <= 0 {
		cfg.Chips = 1
	}
	if cfg.MPBBytes <= 0 {
		cfg.MPBBytes = phys.MPBBytesPerCore
	}
	if cfg.Chips > 1 && cfg.Link == (interchip.Config{}) {
		cfg.Link = interchip.DefaultConfig()
	}
	return cfg
}

// Validate checks a whole machine configuration, returning the first
// problem found. It subsumes the limits that used to live (or silently
// truncate) in the component layers: the interrupt-line capacity, the MPB
// mailbox/scratchpad carve-up, the 16-bit scratchpad frame encoding, and
// the 32-bit physical address space. Call it on a Normalized config; New
// does both.
func Validate(cfg Config) error {
	m, err := mesh.New(cfg.Mesh)
	if err != nil {
		return err
	}
	if cfg.Core.Clock.PeriodPS == 0 {
		return fmt.Errorf("scc: zero core clock")
	}
	if cfg.MemClock.PeriodPS == 0 {
		return fmt.Errorf("scc: zero memory clock")
	}
	if p := cfg.GICPort; p.X < 0 || p.X >= cfg.Mesh.Width || p.Y < 0 || p.Y >= cfg.Mesh.Height {
		return fmt.Errorf("scc: GIC port %v outside the %dx%d grid", p, cfg.Mesh.Width, cfg.Mesh.Height)
	}
	if cfg.Chips < 1 {
		return fmt.Errorf("scc: chip count %d (Normalized resolves 0 to 1)", cfg.Chips)
	}
	if f := max(cfg.Chips, cfg.Mesh.Width, cfg.Mesh.Height, cfg.Mesh.CoresPerTile); f > MaxCores {
		return fmt.Errorf("scc: %d chips of %dx%dx%d tiles exceed the %d-core ceiling",
			cfg.Chips, cfg.Mesh.Width, cfg.Mesh.Height, cfg.Mesh.CoresPerTile, MaxCores)
	}
	total := cfg.Chips * m.Cores()
	if total > MaxCores {
		return fmt.Errorf("scc: %d chips x %d cores = %d cores exceeds the %d-core ceiling",
			cfg.Chips, m.Cores(), total, MaxCores)
	}
	if cfg.Chips > 1 {
		if err := interchip.Validate(cfg.Link); err != nil {
			return err
		}
	}
	if cfg.PrivateMemPerCore == 0 || cfg.PrivateMemPerCore%pgtable.PageSize != 0 {
		return fmt.Errorf("scc: private region size %d not a positive page multiple", cfg.PrivateMemPerCore)
	}
	if cfg.SharedMem == 0 || cfg.SharedMem%pgtable.PageSize != 0 {
		return fmt.Errorf("scc: shared region size %d not a positive page multiple", cfg.SharedMem)
	}
	controllers := cfg.Chips * m.ControllerCount()
	if uint64(cfg.SharedMem)%(uint64(controllers)*pgtable.PageSize) != 0 {
		return fmt.Errorf("scc: shared region size %d does not stripe over %d controllers in page multiples (see scc.Grid/MultiChip for auto-alignment)",
			cfg.SharedMem, controllers)
	}
	if size := uint64(cfg.PrivateMemPerCore)*uint64(total) + uint64(cfg.SharedMem); size > 1<<32 {
		return fmt.Errorf("scc: %d cores x %d MiB private + %d MiB shared = %d MiB exceeds the 32-bit physical address space (shrink PrivateMemPerCore)",
			total, cfg.PrivateMemPerCore>>20, cfg.SharedMem>>20, size>>20)
	}
	sharedPages := int(cfg.SharedMem / pgtable.PageSize)
	if sharedPages > 0xFFFF {
		return fmt.Errorf("scc: %d shared pages exceed the scratchpad's 16-bit frame encoding (max %d)",
			sharedPages, 0xFFFF)
	}
	mpb := cfg.MPBBytes
	need := total*phys.CacheLine + (sharedPages+total-1)/total*2
	if need > mpb {
		return fmt.Errorf("scc: MPB overcommitted: %d cores need %d bytes of mailbox slots and scratchpad but MPBBytes is %d (see scc.Grid/MultiChip for auto-sizing)",
			total, need, mpb)
	}
	return nil
}
