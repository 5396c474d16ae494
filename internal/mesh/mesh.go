// Package mesh models the SCC's on-die 2-D mesh network: a 6x4 grid of
// tiles with two cores per tile, four memory controllers on the grid edges,
// dimension-ordered (XY) routing, and a per-hop latency in mesh-clock
// cycles.
//
// The mesh model is purely geometric and temporal: it computes hop counts
// and transfer latencies. Functional data movement is instantaneous in the
// simulator (bytes appear at the target when the modeled latency has been
// charged), which is adequate because the experiments depend on latency
// shape, not on in-flight packet state.
package mesh

import (
	"fmt"

	"metalsvm/internal/sim"
)

// Coord is a tile position on the mesh (X grows east, Y grows north).
type Coord struct {
	X, Y int
}

// Config describes the mesh geometry and speed.
type Config struct {
	// Width and Height of the tile grid (SCC: 6 x 4).
	Width, Height int
	// CoresPerTile (SCC: 2).
	CoresPerTile int
	// Clock of the routers (SCC default in the paper: 800 MHz).
	Clock sim.Clock
	// HopCycles is the router traversal cost per hop in mesh cycles for one
	// flit in one direction (SCC: 4 mesh cycles per hop).
	HopCycles uint64
	// MemoryControllers are the router positions the four DDR3 controllers
	// attach to.
	MemoryControllers []Coord
}

// DefaultConfig returns the SCC geometry: 6x4 tiles, 2 cores each, 800 MHz
// routers, 4 cycles per hop, and memory controllers on the west and east
// edges of tile rows 0 and 2 (as in the SCC EAS).
func DefaultConfig() Config {
	return Config{
		Width:        6,
		Height:       4,
		CoresPerTile: 2,
		Clock:        sim.MHz(800),
		HopCycles:    4,
		MemoryControllers: []Coord{
			{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 2}, {X: 5, Y: 2},
		},
	}
}

// Mesh answers geometry and latency questions for a fixed configuration.
type Mesh struct {
	cfg Config
	// coords is every core's tile position, worked out once by New so a
	// hop count reads a table instead of dividing. Positions fit 16 bits:
	// a larger grid has an empty table (see maxTableCores).
	coords []coord16
}

// coord16 is a Coord packed for the table.
type coord16 struct{ x, y uint16 }

// maxTableCores bounds the core count New tabulates. No machine is built
// on a larger grid (scc caps one at 16 384 cores), but New still returns
// it, with an empty table, so the caller's validation can name its own
// limit; asking such a mesh for a position panics.
const maxTableCores = 1 << 16

// New validates cfg and returns the mesh.
func New(cfg Config) (*Mesh, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("mesh: invalid grid %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.CoresPerTile <= 0 {
		return nil, fmt.Errorf("mesh: invalid cores per tile %d", cfg.CoresPerTile)
	}
	if cfg.Clock.PeriodPS == 0 {
		return nil, fmt.Errorf("mesh: zero mesh clock")
	}
	if len(cfg.MemoryControllers) == 0 {
		return nil, fmt.Errorf("mesh: no memory controllers")
	}
	for _, mc := range cfg.MemoryControllers {
		if !cfg.inGrid(mc) {
			return nil, fmt.Errorf("mesh: memory controller at %v outside grid", mc)
		}
	}
	m := &Mesh{cfg: cfg}
	if cfg.Width <= maxTableCores && cfg.Height <= maxTableCores/cfg.Width &&
		cfg.CoresPerTile <= maxTableCores/m.Tiles() {
		m.coords = make([]coord16, m.Cores())
		for c := range m.coords {
			tile := c / cfg.CoresPerTile
			m.coords[c] = coord16{uint16(tile % cfg.Width), uint16(tile / cfg.Width)}
		}
	}
	return m, nil
}

func (c Config) inGrid(p Coord) bool {
	return p.X >= 0 && p.X < c.Width && p.Y >= 0 && p.Y < c.Height
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Cores returns the total core count.
func (m *Mesh) Cores() int { return m.cfg.Width * m.cfg.Height * m.cfg.CoresPerTile }

// Tiles returns the total tile count.
func (m *Mesh) Tiles() int { return m.cfg.Width * m.cfg.Height }

// TileOfCore maps a core id to its tile index (cores are numbered two per
// tile in tile order, matching the SCC's default enumeration).
func (m *Mesh) TileOfCore(core int) int {
	m.checkCore(core)
	return core / m.cfg.CoresPerTile
}

// CoordOfCore maps a core id to its tile's grid position (tiles are
// row-major from the south-west corner). It inlines; a core off the mesh
// fails the table's index check.
func (m *Mesh) CoordOfCore(core int) Coord {
	c := m.coords[core]
	return Coord{X: int(c.x), Y: int(c.y)}
}

func (m *Mesh) checkCore(core int) {
	if core < 0 || core >= m.Cores() {
		panic(fmt.Sprintf("mesh: core %d out of range [0,%d)", core, m.Cores()))
	}
}

// Hops returns the XY-routing hop count between two positions.
func Hops(a, b Coord) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// HopsCores returns the hop count between the tiles of two cores
// (0 when they share a tile). It reads the packed coordinates directly,
// which keeps it within the inliner's budget.
func (m *Mesh) HopsCores(a, b int) int {
	ca, cb := m.coords[a], m.coords[b]
	return Hops(Coord{X: int(ca.x), Y: int(ca.y)}, Coord{X: int(cb.x), Y: int(cb.y)})
}

// MemoryController returns the position of controller mc.
func (m *Mesh) MemoryController(mc int) Coord {
	if mc < 0 || mc >= len(m.cfg.MemoryControllers) {
		panic(fmt.Sprintf("mesh: memory controller %d out of range", mc))
	}
	return m.cfg.MemoryControllers[mc]
}

// ControllerCount returns the number of memory controllers.
func (m *Mesh) ControllerCount() int { return len(m.cfg.MemoryControllers) }

// NearestController returns the controller index with the fewest hops from
// the core's tile, breaking ties by lower index. With the default SCC layout
// this reproduces the quadrant affinity the sccKit LUTs encode.
func (m *Mesh) NearestController(core int) int {
	pos := m.CoordOfCore(core)
	best, bestHops := 0, 1<<30
	for i, mc := range m.cfg.MemoryControllers {
		if h := Hops(pos, mc); h < bestHops {
			best, bestHops = i, h
		}
	}
	return best
}

// HopsToController returns the hop count from a core's tile to a controller.
func (m *Mesh) HopsToController(core, mc int) int {
	return Hops(m.CoordOfCore(core), m.MemoryController(mc))
}

// OneWay returns the latency for a single flit to traverse h hops.
func (m *Mesh) OneWay(h int) sim.Duration {
	return m.cfg.Clock.Cycles(m.cfg.HopCycles * uint64(h))
}

// RoundTrip returns the request+response mesh traversal latency over h hops.
func (m *Mesh) RoundTrip(h int) sim.Duration {
	return m.cfg.Clock.Cycles(2 * m.cfg.HopCycles * uint64(h))
}

// MaxHops returns the mesh diameter in hops.
func (m *Mesh) MaxHops() int {
	return (m.cfg.Width - 1) + (m.cfg.Height - 1)
}

// CoreAtDistance returns some core whose tile is exactly h hops away from
// the tile of the given core, or -1 if no such core exists. Used by the
// ping-pong distance sweep (Figure 6).
func (m *Mesh) CoreAtDistance(from, h int) int {
	if h == 0 && m.cfg.CoresPerTile > 1 {
		// The second core on the same tile.
		tile := m.TileOfCore(from)
		for c := tile * m.cfg.CoresPerTile; c < (tile+1)*m.cfg.CoresPerTile; c++ {
			if c != from {
				return c
			}
		}
	}
	for c := 0; c < m.Cores(); c++ {
		if c != from && m.HopsCores(from, c) == h {
			return c
		}
	}
	return -1
}
