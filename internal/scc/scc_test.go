package scc

import (
	"reflect"
	"runtime"
	"testing"

	"metalsvm/internal/cache"
	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

func newChip(t testing.TB) (*sim.Engine, *Chip) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20 // keep boot mapping small in tests
	cfg.SharedMem = 16 << 20
	ch, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ch
}

func TestChipGeometry(t *testing.T) {
	_, ch := newChip(t)
	if ch.Cores() != 48 {
		t.Fatalf("cores = %d", ch.Cores())
	}
	if ch.Layout().SharedFrames() != (16<<20)/4096 {
		t.Fatalf("shared frames = %d", ch.Layout().SharedFrames())
	}
	// MPB layout: 48 mailbox lines, then scratchpad, then >0 general space.
	if ch.ScratchpadMPBOffset() != 48*32 {
		t.Fatalf("scratch offset = %d", ch.ScratchpadMPBOffset())
	}
	if ch.GeneralMPBSize() <= 0 {
		t.Fatal("no general MPB space left")
	}
}

func TestMPBOvercommitRejected(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.SharedMem = 1 << 30 // 256K pages: scratchpad would not fit
	if _, err := New(eng, cfg); err == nil {
		t.Fatal("oversized scratchpad accepted")
	}
}

func TestBootIdentityMapsPrivateMemory(t *testing.T) {
	eng, ch := newChip(t)
	var got uint64
	ch.Boot(3, func(c *cpu.Core) {
		c.Store64(0x1000, 0xabc)
		got = c.Load64(0x1000)
	})
	eng.Run()
	eng.Shutdown()
	if got != 0xabc {
		t.Fatalf("private round trip = %#x", got)
	}
	// The bytes must land in core 3's private region, not core 0's.
	if v := ch.Mem().Read64(ch.Layout().PrivateBase(3) + 0x1000); v != 0xabc {
		t.Fatalf("private phys = %#x", v)
	}
	if v := ch.Mem().Read64(ch.Layout().PrivateBase(0) + 0x1000); v != 0 {
		t.Fatalf("core 0 region polluted: %#x", v)
	}
}

func TestPrivateMemoryIsolation(t *testing.T) {
	eng, ch := newChip(t)
	var v5 uint64
	ch.Boot(4, func(c *cpu.Core) {
		c.Store64(0x2000, 444)
	})
	ch.Boot(5, func(c *cpu.Core) {
		c.Proc().Advance(sim.Microseconds(100)) // run after core 4
		c.Sync()
		v5 = c.Load64(0x2000)
	})
	eng.Run()
	eng.Shutdown()
	if v5 != 0 {
		t.Fatalf("core 5 sees core 4's private data: %d", v5)
	}
}

func TestDDRLatencyDependsOnDistance(t *testing.T) {
	_, ch := newChip(t)
	// Core 0 is adjacent to its own controller; its access to a frame on
	// the far controller must cost more.
	nearAddr := ch.Layout().PrivateBase(0)
	farAddr := ch.Layout().PrivateBase(47)
	var buf [32]byte
	near := ch.FetchLine(0, nearAddr, buf[:])
	far := ch.FetchLine(0, farAddr, buf[:])
	if far <= near {
		t.Fatalf("far fetch (%d ps) not slower than near (%d ps)", far, near)
	}
}

func TestWriteLatencies(t *testing.T) {
	_, ch := newChip(t)
	addr := ch.Layout().PrivateBase(0)
	var buf [32]byte
	read := ch.FetchLine(0, addr, buf[:])
	// An uncombined word store stalls for the full round trip — as
	// expensive as a read (the paper's "like uncachable memory" cost).
	word := ch.WriteMem(0, addr, buf[:8])
	if word < read {
		t.Fatalf("word write (%d) cheaper than read (%d); it must pay the full round trip", word, read)
	}
	// A combined line write is posted and must be cheaper per transaction.
	line := ch.WriteMaskedLine(0, cache.Flushed{LineAddr: addr, Mask: 0xffffffff})
	if line >= word {
		t.Fatalf("posted line write (%d) not cheaper than word write (%d)", line, word)
	}
}

func TestSyncMPBOrdering(t *testing.T) {
	eng, ch := newChip(t)
	var sawByCore1 byte
	ch.Boot(0, func(c *cpu.Core) {
		c.Proc().Advance(sim.Microseconds(1))
		ch.MPBWrite(0, 1, 100, []byte{7}) // write core 1's MPB at ~1us
	})
	ch.Boot(1, func(c *cpu.Core) {
		c.Proc().Advance(sim.Microseconds(10)) // well after the write lands
		var b [1]byte
		ch.MPBRead(1, 1, 100, b[:])
		sawByCore1 = b[0]
	})
	eng.Run()
	eng.Shutdown()
	if sawByCore1 != 7 {
		t.Fatalf("MPB write not visible: %d", sawByCore1)
	}
}

func TestMPBLatencyScalesWithDistance(t *testing.T) {
	eng, ch := newChip(t)
	var near, far sim.Duration
	ch.Boot(0, func(c *cpu.Core) {
		start := c.Now()
		ch.MPBRead(0, 1, 0, make([]byte, 1)) // same tile
		near = c.Now() - start
		start = c.Now()
		ch.MPBRead(0, 47, 0, make([]byte, 1)) // 8 hops away
		far = c.Now() - start
	})
	eng.Run()
	eng.Shutdown()
	if far <= near {
		t.Fatalf("remote MPB (%d) not slower than local (%d)", far, near)
	}
	// 8 hops of 4 mesh cycles round trip = 64 cycles * 1250 ps = 80 ns.
	if diff := far - near; diff != 80_000 {
		t.Fatalf("distance premium = %d ps, want 80000", diff)
	}
}

// tasLoop is the retry loop TASSpin runs as a sim.Proc.Spin, written out
// with TASLock: probe, and on a loss back off (exponentially when hardened).
func tasLoop(ch *Chip, c *cpu.Core, reg int) (backoffs uint64) {
	attempt := uint(0)
	for !ch.TASLock(c.ID(), reg) {
		backoff := uint64(100)
		if ch.FaultsHardened() {
			backoff <<= min(attempt, 5)
			attempt++
			backoffs++
		}
		c.Cycles(backoff)
	}
	return backoffs
}

// TestTASSpinMatchesTASLockLoop: eight cores taking turns on one register
// never hold it together, and get the same acquire times, hardened backoffs,
// mesh counters and trace events from TASSpin as from the TASLock loop, with
// and without injected TAS drops and core stalls.
func TestTASSpinMatchesTASLockLoop(t *testing.T) {
	type outcome struct {
		acquired [][]sim.Time
		backoffs uint64
		mesh     MeshStats
		events   []trace.Event
		end      sim.Time
	}
	run := func(spin bool, spec *faults.Spec) (outcome, sim.Stats) {
		eng, ch := newChip(t)
		if spec != nil {
			ch.SetFaultInjector(faults.NewInjector(faults.Config{Seed: 3, Spec: *spec}))
			ch.Harden()
		}
		o := outcome{acquired: make([][]sim.Time, 8)}
		ch.Tracer().Subscribe(func(e trace.Event) { o.events = append(o.events, e) },
			trace.KindTASAcquire, trace.KindTASRelease, trace.KindFaultInject)
		holders := 0
		for i := 0; i < 8; i++ {
			i := i
			ch.Boot(6*i, func(c *cpu.Core) {
				for round := 0; round < 20; round++ {
					if spin {
						o.backoffs += ch.TASSpin(c.ID(), 7)
					} else {
						o.backoffs += tasLoop(ch, c, 7)
					}
					o.acquired[i] = append(o.acquired[i], c.Now())
					if holders++; holders > 1 {
						t.Errorf("core %d: %d concurrent holders", c.ID(), holders)
					}
					c.Cycles(uint64(150 + 20*i)) // critical section work
					holders--
					ch.TASUnlock(c.ID(), 7)
					c.Cycles(uint64(40 * i))
				}
			})
		}
		o.end = eng.Run()
		eng.Shutdown()
		o.mesh = ch.MeshStats()
		return o, eng.Stats()
	}
	tasFaults := &faults.Spec{StallPermille: 100, StallCycles: 300}
	tasFaults.Routes[faults.TAS] = faults.RouteSpec{DropPermille: 150}
	for _, tc := range []struct {
		name string
		spec *faults.Spec
	}{{"plain", nil}, {"tas drops and stalls, hardened", tasFaults}} {
		t.Run(tc.name, func(t *testing.T) {
			loop, _ := run(false, tc.spec)
			spin, st := run(true, tc.spec)
			if !reflect.DeepEqual(loop, spin) {
				t.Fatalf("TASSpin diverged from the TASLock loop:\nloop %+v\nspin %+v", loop, spin)
			}
			if st.InPlaceSteps == 0 {
				t.Fatalf("no probe ran in place: %+v", st)
			}
			if tc.spec != nil && (spin.backoffs == 0 || len(spin.events) <= 2*8*20) {
				t.Fatalf("no fault reached the spin: %d backoffs, %d events", spin.backoffs, len(spin.events))
			}
		})
	}
}

// TestTASSpinAllocatesNothing: once a core has spun, a spin that loses to a
// holder, probes until the release and then wins allocates nothing.
func TestTASSpinAllocatesNothing(t *testing.T) {
	eng, ch := newChip(t)
	holder := ch.Boot(0, func(c *cpu.Core) {
		for {
			ch.TASSpin(0, 3)
			c.Cycles(3000)
			ch.TASUnlock(0, 3)
			c.Proc().Wait()
		}
	})
	spinner := ch.Boot(47, func(c *cpu.Core) {
		for {
			c.Cycles(200)
			ch.TASSpin(47, 3)
			ch.TASUnlock(47, 3)
			c.Proc().Wait()
		}
	})
	eng.Run()
	before := ch.MeshStats().TASAccesses
	allocs := testing.AllocsPerRun(100, func() {
		holder.Proc().Wake(eng.Now())
		spinner.Proc().Wake(eng.Now())
		eng.Run()
	})
	probes := ch.MeshStats().TASAccesses - before
	eng.Shutdown()
	if probes < 101*10 {
		t.Fatalf("%d test-and-set accesses over 101 rounds, want the spinner losing ~10 probes a round", probes)
	}
	if allocs != 0 {
		t.Fatalf("a warm TASSpin allocates %v times, want 0", allocs)
	}
}

func TestPhysWordAccess(t *testing.T) {
	eng, ch := newChip(t)
	var got uint32
	ch.Boot(0, func(c *cpu.Core) {
		base := ch.Layout().SharedBase()
		ch.PhysWrite32(0, base+64, 0xfeed)
		got = ch.PhysRead32(0, base+64)
	})
	eng.Run()
	eng.Shutdown()
	if got != 0xfeed {
		t.Fatalf("phys word = %#x", got)
	}
}

// raiseIPI sends an inter-processor interrupt from core to core: the
// sender pays IPICharge, then IPIEffect delivers it.
func raiseIPI(ch *Chip, from, to int) {
	ch.Core(from).Proc().Charge(ch.IPICharge(from, to))
	ch.IPIEffect(from, to)
}

func TestIPIDelivery(t *testing.T) {
	eng, ch := newChip(t)
	var origin int
	var deliveredAt sim.Time
	ch.Boot(30, func(c *cpu.Core) {
		c.SetIRQHandler(func(c *cpu.Core, irq cpu.IRQ) {
			if irq == cpu.IRQIPI {
				for _, f := range ch.GIC().ClaimAll(30, nil) {
					origin = f
					deliveredAt = c.Now()
				}
			}
		})
		c.Proc().Wait() // idle until the IPI arrives
	})
	ch.Boot(0, func(c *cpu.Core) {
		c.Proc().Advance(sim.Microseconds(5))
		raiseIPI(ch, 0, 30)
	})
	eng.Run()
	eng.Shutdown()
	if origin != 0 {
		t.Fatalf("IPI origin = %d, want 0 (GIC must identify the raiser)", origin)
	}
	if deliveredAt <= sim.Microseconds(5) {
		t.Fatalf("IPI delivered at %v, before it was raised", deliveredAt)
	}
}

// TestIPIAllocatesNothing: once a delivery record exists, raising an IPI and
// delivering it to the target's handler allocates nothing.
func TestIPIAllocatesNothing(t *testing.T) {
	eng, ch := newChip(t)
	delivered := 0
	var claimed []int // reused, as the kernel reuses its claim buffer
	ch.Boot(30, func(c *cpu.Core) {
		c.SetIRQHandler(func(c *cpu.Core, irq cpu.IRQ) {
			claimed = ch.GIC().ClaimAll(30, claimed[:0])
			delivered += len(claimed)
		})
		for {
			c.Proc().Wait()
		}
	})
	sender := ch.Boot(0, func(c *cpu.Core) {
		for {
			raiseIPI(ch, 0, 30)
			c.Proc().Wait()
		}
	})
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		sender.Proc().Wake(eng.Now())
		eng.Run()
	})
	eng.Shutdown()
	if delivered != 102 {
		t.Fatalf("delivered %d IPIs, want 102", delivered)
	}
	if allocs != 0 {
		t.Fatalf("an IPI and its delivery allocate %v times, want 0", allocs)
	}
}

func TestZeroSharedFrameCostsLineWrites(t *testing.T) {
	eng, ch := newChip(t)
	var cost sim.Duration
	ch.Boot(0, func(c *cpu.Core) {
		base := ch.Layout().SharedBase()
		ch.Mem().Write64(uint32(base)+8, 0xdead) // dirty the frame
		start := c.Now()
		ch.ZeroSharedFrame(0, base)
		cost = c.Now() - start
	})
	eng.Run()
	eng.Shutdown()
	if v := ch.Mem().Read64(ch.Layout().SharedBase() + 8); v != 0 {
		t.Fatalf("frame not zeroed: %#x", v)
	}
	// 128 line writes; each is at least the DRAM write cost (30 cycles at
	// 800 MHz = 37.5 ns).
	if cost < 128*30_000 {
		t.Fatalf("zeroing cost %d ps implausibly low", cost)
	}
}

func TestDeterministicBoot(t *testing.T) {
	run := func() sim.Time {
		eng, ch := newChip(t)
		for id := 0; id < 8; id++ {
			ch.Boot(id, func(c *cpu.Core) {
				for i := 0; i < 20; i++ {
					ch.MPBWrite(c.ID(), (c.ID()+1)%8, 0, []byte{byte(i)})
					c.Cycles(uint64(100 * (c.ID() + 1)))
				}
			})
		}
		end := eng.Run()
		eng.Shutdown()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// BenchmarkTASSpin: eight cores take turns on one test-and-set register,
// each holding it for 2 000 cycles while the other seven spin on it. One op
// is one acquisition. The losers' probes in between are what the engine runs
// in place: in-place/op counts them, switches/op the hand-offs left.
func BenchmarkTASSpin(b *testing.B) {
	eng, ch := newChip(b)
	acquired := 0
	for i := 0; i < 8; i++ {
		ch.Boot(6*i, func(c *cpu.Core) {
			for acquired < b.N {
				ch.TASSpin(c.ID(), 7)
				acquired++
				c.Cycles(2000)
				ch.TASUnlock(c.ID(), 7)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	s := eng.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(s.ProcSwitches)/n, "switches/op")
	b.ReportMetric(float64(s.InPlaceSteps)/n, "in-place/op")
	eng.Shutdown()
}

// TestBootedChipIsSmall: building the paper chip and booting its 48 cores
// allocates at most 512 KiB in all. Page tables that stored the private
// region's 4 096 entries a core (an 8 KB directory and four 8 KB leaves)
// and MPBs made whole (8 KiB a core) took 2.3 MB of it alone; the identity
// window and chunks made on first write leave the machine about 0.2 MB.
func TestBootedChipIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := sim.NewEngine()
	ch, err := New(eng, PaperSCC())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ch.Cores(); id++ {
		ch.Boot(id, func(*cpu.Core) {})
	}
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(512<<10); got > bound {
		t.Fatalf("a booted paper chip allocated %d bytes, want at most %d", got, bound)
	}
	eng.Shutdown()
}

// BenchmarkBoot builds scale_256's machine, two chips of an 8x8 grid with two
// cores a tile, and boots every core. One op is the whole construction.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		ch, err := New(eng, MultiChip(2, Grid(8, 8, 2)))
		if err != nil {
			b.Fatal(err)
		}
		for id := 0; id < ch.Cores(); id++ {
			ch.Boot(id, func(*cpu.Core) {})
		}
	}
}
