package main

import (
	"runtime"
	"time"

	"metalsvm/internal/bench"
	"metalsvm/internal/cache"
	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// A microbench makes n calls into one layer's public functions and returns
// the host time the calls took (set-up around them excluded) and how many
// calls that was, which may differ from n where the entry point fixes the
// granularity.
type microbench struct {
	metric string
	run    func(n int) (time.Duration, int)
}

// microReps is how many times each microbenchmark is measured; the metric
// is the median.
const microReps = 3

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

// microbenches lists the layer microbenchmarks, cheapest layers first. Each
// predicts host_wall_s on the workloads README.md's interaction table names.
func microbenches() []microbench {
	return []microbench{
		{"sim.event_ns", func(n int) (time.Duration, int) {
			// Events at scattered future times: the heap path of the queue.
			eng := sim.NewEngine()
			fired := 0
			x := uint64(1)
			start := time.Now()
			for i := 0; i < n; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				eng.At(sim.Time(x>>44), func() { fired++ })
			}
			eng.Run()
			sink += uint64(fired)
			return time.Since(start), n
		}},
		{"sim.fifo_event_ns", func(n int) (time.Duration, int) {
			// Each event schedules the next at the current time: the
			// queue's append path.
			eng := sim.NewEngine()
			left := n
			var next func()
			next = func() {
				if left--; left > 0 {
					eng.At(eng.Now(), next)
				}
			}
			start := time.Now()
			eng.At(0, next)
			eng.Run()
			return time.Since(start), n
		}},
		{"sim.proc_switch_ns", procSwitch},
		{"sim.proc_switch_1p_ns", func(n int) (time.Duration, int) {
			// The same hand-off with both goroutines on one P: the gap to
			// proc_switch_ns is what crossing Ps costs.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			return procSwitch(n)
		}},
		{"cache.load_hit_ns", func(n int) (time.Duration, int) {
			c := cache.New("l1", 16<<10, 4)
			var line [cache.LineSize]byte
			c.Fill(0x1000, line[:], false)
			var dst [8]byte
			start := time.Now()
			for i := 0; i < n; i++ {
				c.Load(0x1000+uint32(i&3)*8, dst[:])
			}
			sink += uint64(dst[0])
			return time.Since(start), n
		}},
		{"cache.fill_ns", func(n int) (time.Duration, int) {
			// Line-stride fills over four times the capacity: every fill
			// past the first pass evicts.
			c := cache.New("l1", 16<<10, 4)
			var line [cache.LineSize]byte
			start := time.Now()
			for i := 0; i < n; i++ {
				c.Fill(uint32(i%2048)*cache.LineSize, line[:], true)
			}
			return time.Since(start), n
		}},
		{"cache.wcb_write_ns", func(n int) (time.Duration, int) {
			// Sequential 8-byte stores: three merges and a drain per line.
			w := cache.NewWCB()
			var src [8]byte
			drains := 0
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, drained := w.Write(uint32(i)*8, src[:]); drained {
					drains++
				}
			}
			sink += uint64(drains)
			return time.Since(start), n
		}},
		{"pgtable.lookup_ns", func(n int) (time.Duration, int) {
			// Page-stride lookups, so the one-entry TLB never hits.
			t := pgtable.New()
			const pages = 1024
			for p := uint32(0); p < pages; p++ {
				t.Map(p*pgtable.PageSize, p, pgtable.Present|pgtable.Writable)
			}
			hits := 0
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, ok := t.Lookup(uint32(i%pages) * pgtable.PageSize); ok {
					hits++
				}
			}
			sink += uint64(hits)
			return time.Since(start), n
		}},
		{"pgtable.map_ns", func(n int) (time.Duration, int) {
			// What Chip.Boot does for every page of a core's private memory.
			t := pgtable.New()
			start := time.Now()
			for i := 0; i < n; i++ {
				t.Map(uint32(i)*pgtable.PageSize, uint32(i), pgtable.Present|pgtable.Writable|pgtable.WriteThrough)
			}
			return time.Since(start), n
		}},
		{"scc.fetch_line_ns", func(n int) (time.Duration, int) {
			return onBootedCore(func(ch *scc.Chip, _ *cpu.Core) {
				var line [cache.LineSize]byte
				base := ch.Layout().PrivateBase(0)
				for i := 0; i < n; i++ {
					sink += uint64(ch.FetchLine(0, base+uint32(i%1024)*cache.LineSize, line[:]))
				}
			}), n
		}},
		{"scc.mpb_read_ns", func(n int) (time.Duration, int) {
			return onBootedCore(func(ch *scc.Chip, _ *cpu.Core) {
				var dst [cache.LineSize]byte
				for i := 0; i < n; i++ {
					ch.MPBRead(0, 30, 0, dst[:])
				}
			}), n
		}},
		{"scc.tas_ns", func(n int) (time.Duration, int) {
			return onBootedCore(func(ch *scc.Chip, _ *cpu.Core) {
				for i := 0; i < n/2; i++ {
					ch.TASLock(0, 1)
					ch.TASUnlock(0, 1)
				}
			}), n / 2 * 2
		}},
		{"cpu.load_l1hit_ns", func(n int) (time.Duration, int) {
			return onSVMCore(func(c *cpu.Core, base uint32) {
				for i := 0; i < n; i++ {
					sink += c.Load64(base + uint32(i&3)*8)
				}
			}), n
		}},
		{"cpu.load_miss_ns", func(n int) (time.Duration, int) {
			// Page-stride loads land in one L1 set and evict each other.
			return onSVMCore(func(c *cpu.Core, base uint32) {
				for i := 0; i < n; i++ {
					sink += c.Load64(base + uint32(i%svmCorePages)*pgtable.PageSize)
				}
			}), n
		}},
		{"cpu.store_wcb_ns", func(n int) (time.Duration, int) {
			return onSVMCore(func(c *cpu.Core, base uint32) {
				for i := 0; i < n; i++ {
					c.Store64(base+uint32(i%(svmCorePages*pgtable.PageSize/8))*8, uint64(i))
				}
			}), n
		}},
		{"mailbox.mail_ns", func(n int) (time.Duration, int) {
			// Fig 6's sweep: a polling and an IPI ping-pong per distance.
			rounds := max(n/40, 8)
			start := time.Now()
			points := bench.Fig6(rounds)
			return time.Since(start), len(points) * 2 * 2 * (rounds + rounds/4)
		}},
		{"mailbox.hardened_mail_ns", func(n int) (time.Duration, int) {
			// The hardened protocol with an injector that never fires.
			rounds := max(n/2, 8)
			start := time.Now()
			r := bench.Fig6Chaos(rounds, &faults.Config{Seed: 1})
			sink += uint64(r.US)
			return time.Since(start), 2 * (rounds + rounds/4)
		}},
		{"core.new_machine_16_ns_per_core", func(int) (time.Duration, int) { return newMachine(scc.Grid(4, 4, 1)) }},
		{"core.new_machine_256_ns_per_core", func(int) (time.Duration, int) {
			return newMachine(scc.MultiChip(2, scc.Grid(8, 8, 2)))
		}},
	}
}

// procSwitch alternates two processes, each advancing its clock and syncing
// with the engine n/2 times: one goroutine hand-off each way per sync.
func procSwitch(n int) (time.Duration, int) {
	eng := sim.NewEngine()
	body := func(p *sim.Proc) {
		for i := 0; i < n/2; i++ {
			p.Advance(1000)
			p.Sync()
		}
	}
	eng.NewProc("a", 0, body)
	eng.NewProc("b", 500, body)
	start := time.Now()
	eng.Run()
	d := time.Since(start)
	eng.Shutdown()
	return d, n / 2 * 2
}

// onBootedCore times body on core 0 of the paper's chip, booted bare.
func onBootedCore(body func(*scc.Chip, *cpu.Core)) time.Duration {
	eng := sim.NewEngine()
	ch, err := scc.New(eng, bench.ShrunkChip(scc.PaperSCC()))
	if err != nil {
		panic(err)
	}
	var d time.Duration
	ch.Boot(0, func(c *cpu.Core) {
		start := time.Now()
		body(ch, c)
		d = time.Since(start)
	})
	eng.Run()
	eng.Shutdown()
	return d
}

// svmCorePages is the size of the SVM region onSVMCore hands to body.
const svmCorePages = 64

// onSVMCore times body on a one-core MetalSVM machine over a freshly
// allocated SVM region whose pages have all been touched (so body sees no
// first-touch faults).
func onSVMCore(body func(c *cpu.Core, base uint32)) time.Duration {
	topo := bench.ShrunkChip(scc.PaperSCC())
	scfg := svm.DefaultConfig(svm.Strong)
	m, err := core.NewMachine(core.Options{Topology: &topo, SVM: &scfg, Members: []int{0}})
	if err != nil {
		panic(err)
	}
	var d time.Duration
	m.RunAll(func(env *core.Env) {
		c := env.Core()
		base := env.SVM.Alloc(svmCorePages * pgtable.PageSize)
		for p := uint32(0); p < svmCorePages; p++ {
			c.Store64(base+p*pgtable.PageSize, 1)
		}
		start := time.Now()
		body(c, base)
		d = time.Since(start)
	})
	return d
}

// newMachine times building (not running) a machine on every core of topo.
func newMachine(topo scc.Config) (time.Duration, int) {
	topo = topo.Normalized()
	scfg := svm.DefaultConfig(svm.LazyRelease)
	start := time.Now()
	m, err := core.NewMachine(core.Options{Topology: &topo, SVM: &scfg, Members: core.AllCores(topo)})
	d := time.Since(start)
	if err != nil {
		panic(err)
	}
	m.Engine.Shutdown()
	return d, len(m.Cluster.Members())
}

// measureMicro runs b for about perRep of host time, microReps times, and
// returns the median host ns per call.
func measureMicro(b microbench, perRep time.Duration) float64 {
	// A short probe sizes n; entry points with a fixed granularity ignore it.
	const probe = 256
	d, calls := b.run(probe)
	n := probe
	if d > 0 && calls > 0 {
		n = int(float64(perRep) / (float64(d) / float64(calls)))
	}
	n = max(n, probe)
	ns := make([]float64, microReps)
	for i := range ns {
		d, calls := b.run(n)
		ns[i] = float64(d.Nanoseconds()) / float64(calls)
	}
	return median(ns)
}
