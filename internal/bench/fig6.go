package bench

import (
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/mesh"
	"metalsvm/internal/scc"
)

// Fig6Point is one x-position of Figure 6: mail ping-pong half-round-trip
// latency between two cores at a given mesh distance, with the receiver
// discovering mail by polling vs by IPI.
type Fig6Point struct {
	Hops      int
	Peer      int // the core paired with core 0
	PollingUS float64
	IPIUS     float64
}

// Fig6 reproduces Figure 6: "Average latency according to the distance".
// Only the two pinging cores are activated, as in the paper, so the
// polling kernel checks a single receive buffer and comes out faster than
// the interrupt-driven path (whose gap is the IRQ entry overhead).
func Fig6(rounds int) []Fig6Point { return Fig6On(scc.PaperSCC(), rounds) }

// Fig6On is the distance sweep on an arbitrary topology: the x-axis spans
// the topology's own mesh diameter (on-chip — the inter-chip link has no
// hop count; see the scale harness for cross-chip latencies).
func Fig6On(topo scc.Config, rounds int) []Fig6Point {
	chip := ShrunkChip(topo)
	m, err := mesh.New(chip.Mesh)
	if err != nil {
		panic(err)
	}
	// Fix the x-axis serially, then fan the independent ping-pong
	// simulations (one per distance and mode) across the host pool; each
	// writes its own slot, so the sweep is bit-identical at any
	// parallelism.
	var out []Fig6Point
	for h := 0; h <= m.MaxHops(); h++ {
		peer := m.CoreAtDistance(0, h)
		if peer < 0 {
			continue
		}
		out = append(out, Fig6Point{Hops: h, Peer: peer})
	}
	var tasks []func()
	for i := range out {
		p := &out[i]
		poll := pingPongConfig{
			mode: mailbox.ModePolling, b: p.Peer, members: []int{0, p.Peer},
			rounds: rounds, chip: chip,
		}
		ipi := poll
		ipi.mode = mailbox.ModeIPI
		tasks = append(tasks, latencyTask(&p.PollingUS, poll), latencyTask(&p.IPIUS, ipi))
	}
	runTasks(tasks)
	return out
}

// Fig6Cell runs Figure 6's representative cell, the IPI ping-pong at the
// mesh's maximum distance, under the fault schedule fc (nil: none) with
// inst's observers attached. It returns the record, whose US is the
// half-round-trip latency, and the observation (nil when inst requests
// nothing).
func Fig6Cell(rounds int, fc *faults.Config, inst core.Instrumentation) (Run, *core.Observation) {
	chip := ShrunkChip(scc.PaperSCC())
	m, err := mesh.New(chip.Mesh)
	if err != nil {
		panic(err)
	}
	peer := m.CoreAtDistance(0, m.MaxHops())
	return pingPong(pingPongConfig{
		mode: mailbox.ModeIPI, b: peer, members: []int{0, peer},
		rounds: rounds, chip: chip, faults: fc, inst: inst,
	})
}

// Fig6Chaos is Fig6Cell without observers, for the benchmark module.
// ROADMAP item 1 moves that module onto Fig6Cell and deletes this shim.
func Fig6Chaos(rounds int, fc *faults.Config) Run {
	r, _ := Fig6Cell(rounds, fc, core.Instrumentation{})
	return r
}
