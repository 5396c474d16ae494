// Package interchip models the serial interconnect that couples multiple
// simulated SCC chips into one shared-memory machine — the RPC-style link
// of the multi-chip scale-out (DiSquawk's "512 cores, 512 memories, 1 JVM"
// configuration). Every chip exposes one link port on its mesh; a
// transaction that targets another chip travels its local mesh to the
// port, crosses the link, and continues over the remote mesh from the
// remote port.
//
// The model is purely temporal, like the mesh: the fabric computes the
// extra latency a chip crossing costs (a fixed serialization/propagation
// latency plus a per-byte bandwidth term), and the chip layer charges it
// on top of the two mesh traversals. Functional data movement stays
// instantaneous, which keeps the simulator's single-event-engine
// determinism: a multi-chip machine is still one event queue, so same-seed
// runs replay bit-identically.
//
// Loss and congestion are injected through the faults.Link route, not
// modeled here, so a fabric with the same configuration is a pure function
// from transfer size to latency.
package interchip

import (
	"fmt"

	"metalsvm/internal/sim"
)

// Config describes one inter-chip link. All chips share one configuration:
// the fabric is symmetric (any chip reaches any other in one crossing,
// like a star through a central switch whose latency is folded into
// LatencyPS).
type Config struct {
	// LatencyPS is the fixed one-way crossing latency in picoseconds:
	// serialization, propagation and switching, independent of size.
	LatencyPS uint64
	// PSPerByte is the bandwidth term: picoseconds added per payload byte.
	PSPerByte uint64
}

// DefaultConfig returns a PCIe-class link: 500 ns fixed one-way latency
// and 16 GB/s of bandwidth (62 ps per byte) — three orders of magnitude
// slower than a mesh hop, which is what makes chip-local placement matter
// at 512 cores.
func DefaultConfig() Config {
	return Config{
		LatencyPS: 500_000, // 500 ns
		PSPerByte: 62,      // ~16 GB/s
	}
}

// Validate checks the configuration. A zero PSPerByte (infinite bandwidth)
// is allowed; a zero LatencyPS is not: a crossing that costs nothing would
// put a remote chip as near as the local system-interface port, and any
// bound derived from the hop geometry may rely on cross-chip influences
// taking strictly longer than local ones.
func Validate(cfg Config) error {
	if cfg.LatencyPS == 0 {
		return fmt.Errorf("interchip: zero link latency (cross-chip influences must be slower than the local mesh)")
	}
	return nil
}

// Fabric answers latency questions for a fixed link configuration; it is
// stateless.
type Fabric struct {
	cfg Config
}

// New validates cfg and returns the fabric.
func New(cfg Config) (*Fabric, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	return &Fabric{cfg: cfg}, nil
}

// OneWay returns the latency for a payload of the given size to cross the
// link once (posted writes, interrupt delivery).
func (f *Fabric) OneWay(bytes int) sim.Duration {
	return sim.Duration(f.cfg.LatencyPS + f.cfg.PSPerByte*uint64(bytes))
}

// RoundTrip returns the request+response crossing latency: a small request
// header out, the payload back. The header is folded into the fixed
// latency, so only the payload pays the bandwidth term.
func (f *Fabric) RoundTrip(bytes int) sim.Duration {
	return sim.Duration(2*f.cfg.LatencyPS + f.cfg.PSPerByte*uint64(bytes))
}
