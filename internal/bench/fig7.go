package bench

import (
	"sort"

	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/mesh"
	"metalsvm/internal/scc"
)

// Fig7Point is one x-position of Figure 7: ping-pong latency between cores
// 0 and 30 (5 hops apart) as a function of the number of activated cores.
type Fig7Point struct {
	Cores      int
	PollingUS  float64 // all idle cores poll every buffer: grows with cores
	IPIUS      float64 // IPI names the sender: flat
	IPINoiseUS float64 // IPI while the other cores mail each other: flat
}

// Fig7CoreCounts is the default sweep (the paper plots 2..48).
func Fig7CoreCounts() []int { return []int{2, 4, 8, 16, 24, 32, 40, 48} }

// fig7Members returns core 0, core 30, and enough filler cores for a total
// of n, sorted.
func fig7Members(n int) []int { return fig7MembersOn(30, n) }

// fig7MembersOn returns core 0, the given peer, and enough filler cores
// for a total of n, sorted ascending.
func fig7MembersOn(peer, n int) []int {
	members := []int{0, peer}
	for c := 1; len(members) < n; c++ {
		if c != peer {
			members = append(members, c)
		}
	}
	sort.Ints(members)
	return members
}

// fig7Peer picks the measuring pair's far end on a mesh: the paper pairs
// core 0 with core 30 (5 hops); on other grids the first core found at 5
// hops — or the mesh diameter when the grid is smaller — takes that role,
// falling back to core 1 on a single-tile grid.
func fig7Peer(m *mesh.Mesh) int {
	h := 5
	if m.MaxHops() < h {
		h = m.MaxHops()
	}
	for ; h > 0; h-- {
		if peer := m.CoreAtDistance(0, h); peer > 0 {
			return peer
		}
	}
	return 1
}

// Fig7 reproduces Figure 7: "Average latency between core 0 and 30".
func Fig7(rounds int, coreCounts []int) []Fig7Point {
	if coreCounts == nil {
		coreCounts = Fig7CoreCounts()
	}
	return fig7Run(nil, 30, rounds, coreCounts)
}

// Fig7PeerOn reports the pair Fig7On measures on the given topology: the
// far end's core id and its hop distance from core 0 (for table headers).
func Fig7PeerOn(topo scc.Config) (peer, hops int) {
	m, err := mesh.New(topo.Normalized().Mesh)
	if err != nil {
		panic(err)
	}
	peer = fig7Peer(m)
	// fig7Peer's fallback, core 1, is off this mesh only on one-core chips,
	// where every route is zero hops.
	return peer, m.HopsCores(0, peer%m.Cores())
}

// Fig7On is the activated-cores sweep on an arbitrary topology: the pair
// is core 0 and the topology's equivalent of the paper's 5-hop peer, and
// the default sweep doubles from 2 up to the machine's total core count.
func Fig7On(topo scc.Config, rounds int, coreCounts []int) []Fig7Point {
	chip := ShrunkChip(topo)
	m, err := mesh.New(chip.Mesh)
	if err != nil {
		panic(err)
	}
	if coreCounts == nil {
		total := chip.Chips * m.Cores()
		for n := 2; n < total; n *= 2 {
			coreCounts = append(coreCounts, n)
		}
		coreCounts = append(coreCounts, total)
	}
	return fig7Run(&chip, fig7Peer(m), rounds, coreCounts)
}

func fig7Run(chip *scc.Config, peer, rounds int, coreCounts []int) []Fig7Point {
	// One independent simulation per (core count, mode) cell, fanned
	// across the host pool; each writes its own field of its own point.
	out := make([]Fig7Point, len(coreCounts))
	var tasks []func()
	for i, n := range coreCounts {
		p := &out[i]
		p.Cores = n
		poll := pingPongConfig{
			mode: mailbox.ModePolling, b: peer, members: fig7MembersOn(peer, n),
			rounds: rounds, chip: chip,
		}
		ipi := poll
		ipi.mode = mailbox.ModeIPI
		noise := ipi
		noise.noise = true
		tasks = append(tasks, latencyTask(&p.PollingUS, poll), latencyTask(&p.IPIUS, ipi),
			latencyTask(&p.IPINoiseUS, noise))
	}
	runTasks(tasks)
	return out
}

// Fig7Cell runs Figure 7's polling cell at n activated cores, where
// idle-core mailbox sweeps dominate, under the fault schedule fc (nil:
// none) with inst's observers attached. It returns the record, whose US is
// the half-round-trip latency, and the observation (nil when inst requests
// nothing).
func Fig7Cell(rounds, n int, fc *faults.Config, inst core.Instrumentation) (Run, *core.Observation) {
	return pingPong(pingPongConfig{
		mode: mailbox.ModePolling, b: 30, members: fig7Members(n),
		rounds: rounds, faults: fc, inst: inst,
	})
}

// Fig7Observed is Fig7Cell's latency without faults, for the benchmark
// module. ROADMAP item 1 moves that module onto Fig7Cell and deletes this
// shim.
func Fig7Observed(rounds, n int, inst core.Instrumentation) (float64, *core.Observation) {
	r, obs := Fig7Cell(rounds, n, nil, inst)
	return r.US, obs
}
