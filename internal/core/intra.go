package core

import (
	"sync"
	"sync/atomic"

	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// This file wires the engine's intra-run parallel dispatch (conservative
// time-windowed PDES, internal/sim's wave mode) into a built machine. The
// call order matters: WireIntra must run after all tracer and checker
// wiring (core.Observe, wireRaceChecker), because the tracer registered as
// the engine's wave observer is whichever one is installed at that point,
// and checker access hooks installed later would miss the serialization
// wrap below.

// intraDefault is the process default for intra-run parallel dispatch: the
// host worker count WireIntra uses when its caller passes 0. It is an atomic
// because the host-parallel experiment runner builds machines on several
// goroutines.
var intraDefault atomic.Int32

// SetIntraWorkers sets the process default for intra-run parallel dispatch
// (sccbench -intra); 0 or 1 means serial, the initial value. Machines already
// built are unaffected.
func SetIntraWorkers(n int) { intraDefault.Store(int32(n)) }

// WireIntra enables wave-parallel dispatch on the engine with the given
// host worker count; 0 adopts the process default (SetIntraWorkers), and a
// resulting count <= 1 is a no-op, preserving serial dispatch bit for bit —
// trivially, since wave dispatch is bit-exact anyway. The chip's tracer,
// when present, becomes the wave observer so its event stream is spliced in
// serial order; checker access hooks, when present, are serialized under a
// mutex because pure compute segments — where loads and stores happen — run
// concurrently during a wave. For race-free workloads (the SVM system's
// contract, enforced by sccbench -check) the checkers' verdicts are
// unaffected; only the host-side order in which they observe accesses
// varies.
func WireIntra(eng *sim.Engine, chip *scc.Chip, workers int) {
	if workers == 0 {
		workers = int(intraDefault.Load())
	}
	if workers <= 1 {
		return
	}
	var obs sim.WaveObserver
	if tr := chip.Tracer(); tr != nil {
		tr.EnableWaveShards(chip.Cores())
		obs = tr
	}
	var mu sync.Mutex
	for id := 0; id < chip.Cores(); id++ {
		c := chip.Core(id)
		if h := c.AccessHook(); h != nil {
			c.SetAccessHook(func(cc *cpu.Core, vaddr uint32, size int, write bool) {
				mu.Lock()
				defer mu.Unlock()
				h(cc, vaddr, size, write)
			})
		}
	}
	eng.EnableIntra(workers, obs)
}
