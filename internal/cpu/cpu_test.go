package cpu

import (
	"testing"

	"metalsvm/internal/cache"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/phys"
	"metalsvm/internal/sim"
)

// fakeBus is a flat memory with fixed latencies, for testing the core in
// isolation from the chip model.
type fakeBus struct {
	mem        *phys.Mem
	fetchLat   sim.Duration
	writeLat   sim.Duration
	fetches    int
	writes     int
	lineWrites int
}

func newFakeBus() *fakeBus {
	return &fakeBus{
		mem:      phys.NewMem(1<<22, 4096),
		fetchLat: 100_000, // 100 ns
		writeLat: 80_000,
	}
}

func (b *fakeBus) FetchLine(core int, lineAddr uint32, dst []byte) sim.Duration {
	b.fetches++
	b.mem.Read(lineAddr, dst)
	return b.fetchLat
}

func (b *fakeBus) WriteMem(core int, paddr uint32, data []byte) sim.Duration {
	b.writes++
	b.mem.Write(paddr, data)
	return b.writeLat
}

func (b *fakeBus) WriteMaskedLine(core int, f cache.Flushed) sim.Duration {
	b.lineWrites++
	var line [cache.LineSize]byte
	b.mem.Read(f.LineAddr, line[:])
	f.Apply(line[:])
	b.mem.Write(f.LineAddr, line[:])
	return b.writeLat
}

// testCore runs body on a fresh single-core setup and returns afterwards.
func testCore(t *testing.T, cfg Config, prep func(*Core, *fakeBus), body func(*Core, *fakeBus)) {
	t.Helper()
	eng := sim.NewEngine()
	bus := newFakeBus()
	done := false
	c := New(0, cfg, bus, nil)
	proc := eng.NewProc("core0", 0, func(p *sim.Proc) {
		body(c, bus)
		done = true
	})
	c.Bind(proc)
	if prep != nil {
		prep(c, bus)
	}
	eng.Run()
	eng.Shutdown()
	if !done {
		t.Fatal("core body did not finish")
	}
}

func identityMap(c *Core, pages int, flags pgtable.Flags) {
	for p := 0; p < pages; p++ {
		v := uint32(p) * pgtable.PageSize
		c.Table.Map(v, uint32(p), flags|pgtable.Present)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		identityMap(c, 16, pgtable.Writable|pgtable.WriteThrough)
		c.Store64(0x1000, 0xfeedface12345678)
		if v := c.Load64(0x1000); v != 0xfeedface12345678 {
			t.Errorf("Load64 = %#x", v)
		}
		c.StoreF64(0x2000, 3.25)
		if v := c.LoadF64(0x2000); v != 3.25 {
			t.Errorf("LoadF64 = %v", v)
		}
	})
}

func TestWriteThroughReachesMemoryImmediately(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		identityMap(c, 16, pgtable.Writable|pgtable.WriteThrough)
		c.Store32(0x1800, 0xabcd1234)
		// Non-MPBT write-through: memory already holds the value.
		if v := b.mem.Read32(0x1800); v != 0xabcd1234 {
			t.Errorf("memory = %#x, want write-through value", v)
		}
		if b.writes != 1 {
			t.Errorf("memory writes = %d, want 1", b.writes)
		}
	})
}

func TestMPBTWritesCombineInWCB(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		identityMap(c, 16, pgtable.Writable|pgtable.WriteThrough|pgtable.MPBT)
		// Four sequential 8-byte stores fill exactly one line: no memory
		// transactions yet.
		for i := uint32(0); i < 4; i++ {
			c.Store64(0x3000+8*i, uint64(i))
		}
		if b.lineWrites != 0 || b.writes != 0 {
			t.Fatalf("combined stores hit memory early: %d/%d", b.lineWrites, b.writes)
		}
		// The fifth store touches the next line: the full first line drains
		// as a single transaction.
		c.Store64(0x3020, 99)
		if b.lineWrites != 1 {
			t.Fatalf("line writes = %d, want 1", b.lineWrites)
		}
		if v := b.mem.Read64(0x3008); v != 1 {
			t.Fatalf("drained line wrong: %#x", v)
		}
		// Memory does not yet see the buffered second line until FlushWCB.
		if v := b.mem.Read64(0x3020); v != 0 {
			t.Fatalf("unflushed WCB data visible: %#x", v)
		}
		c.FlushWCB()
		if v := b.mem.Read64(0x3020); v != 99 {
			t.Fatalf("flush did not publish: %#x", v)
		}
	})
}

func TestLoadSeesOwnWCBData(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		identityMap(c, 16, pgtable.Writable|pgtable.WriteThrough|pgtable.MPBT)
		c.Store64(0x4000, 0x1111)
		// The written line is in the WCB only (write miss: no allocate).
		// The load must still observe the store.
		if v := c.Load64(0x4000); v != 0x1111 {
			t.Fatalf("load after MPBT store = %#x", v)
		}
		if c.Stats().WCBROBs == 0 {
			t.Fatal("WCB read stall not recorded")
		}
	})
}

func TestMPBTBypassesL2(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		identityMap(c, 8, pgtable.Writable|pgtable.WriteThrough|pgtable.MPBT)
		identityMap2(c, 8, 16, pgtable.Writable|pgtable.WriteThrough)
		c.Load64(0x1000) // MPBT load
		if c.L2().Stats().Fills != 0 {
			t.Fatal("MPBT load filled L2")
		}
		c.Load64(0x9000) // normal load fills both levels
		if c.L2().Stats().Fills != 1 {
			t.Fatalf("normal load L2 fills = %d, want 1", c.L2().Stats().Fills)
		}
	})
}

func identityMap2(c *Core, from, to int, flags pgtable.Flags) {
	for p := from; p < to; p++ {
		v := uint32(p) * pgtable.PageSize
		c.Table.Map(v, uint32(p), flags|pgtable.Present)
	}
}

func TestCL1INVMBSelectivity(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		identityMap(c, 8, pgtable.Writable|pgtable.WriteThrough|pgtable.MPBT)
		identityMap2(c, 8, 16, pgtable.Writable|pgtable.WriteThrough)
		c.Load64(0x1000) // MPBT line
		c.Load64(0x9000) // normal line
		fetchesBefore := b.fetches
		c.CL1INVMB()
		c.Load64(0x1000) // must refetch
		if b.fetches != fetchesBefore+1 {
			t.Fatal("MPBT line survived CL1INVMB")
		}
		c.Load64(0x9000) // must still hit (L1 kept non-MPBT line)
		if b.fetches != fetchesBefore+1 {
			t.Fatal("non-MPBT line was dropped by CL1INVMB")
		}
	})
}

// TestStaleReadWithoutInvalidate exercises the core non-coherence property:
// a core that cached a line keeps reading the stale value after memory
// changed, until it invalidates.
func TestStaleReadWithoutInvalidate(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		identityMap(c, 8, pgtable.Writable|pgtable.WriteThrough|pgtable.MPBT)
		c.Load64(0x1000)              // caches the line (zeros)
		b.mem.Write64(0x1000, 0xbeef) // another core writes memory
		if v := c.Load64(0x1000); v != 0 {
			t.Fatalf("expected stale 0, got %#x (coherence does not exist on the SCC!)", v)
		}
		c.CL1INVMB()
		if v := c.Load64(0x1000); v != 0xbeef {
			t.Fatalf("after invalidate got %#x", v)
		}
	})
}

func TestPageFaultHandlerMapsAndRetries(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		faults := 0
		c.SetFaultHandler(func(c *Core, vaddr uint32, write bool, e pgtable.Entry) {
			faults++
			c.Table.Map(vaddr, pgtable.VPN(vaddr), pgtable.Present|pgtable.Writable|pgtable.WriteThrough)
		})
		c.Store64(0x5000, 7)
		if v := c.Load64(0x5000); v != 7 {
			t.Fatalf("after fault-mapped store, load = %d", v)
		}
		if faults != 1 {
			t.Fatalf("faults = %d, want 1", faults)
		}
		if c.Stats().Faults != 1 {
			t.Fatalf("stats.Faults = %d", c.Stats().Faults)
		}
	})
}

func TestWriteProtectionFaults(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		c.Table.Map(0x6000, 6, pgtable.Present|pgtable.WriteThrough) // read-only
		upgraded := false
		c.SetFaultHandler(func(c *Core, vaddr uint32, write bool, e pgtable.Entry) {
			if !write {
				t.Error("read faulted on a present read-only page")
			}
			if e.PFN != 6 {
				t.Errorf("fault entry PFN = %d", e.PFN)
			}
			upgraded = true
			c.Table.SetFlags(vaddr, pgtable.Writable, 0)
		})
		c.Load64(0x6000) // fine
		c.Store64(0x6000, 1)
		if !upgraded {
			t.Fatal("write to read-only page did not fault")
		}
	})
}

func TestUnhandledFaultPanics(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, b *fakeBus) {
		defer func() {
			if recover() == nil {
				t.Error("unhandled fault did not panic")
			}
		}()
		c.Load64(0x7000)
	})
}

func TestInterruptDeliveryAtSyncPoint(t *testing.T) {
	cfg := DefaultConfig()
	var handled []IRQ
	var handledAt sim.Time
	testCore(t, cfg,
		func(c *Core, b *fakeBus) {
			c.SetIRQHandler(func(c *Core, irq IRQ) {
				handled = append(handled, irq)
				handledAt = c.Now()
			})
			c.Proc().Engine().At(1000, func() { c.PostInterrupt(IRQTimer) })
		},
		func(c *Core, b *fakeBus) {
			// Busy compute: the quantum bounds delivery latency.
			for i := 0; i < 100; i++ {
				c.Cycles(1000)
			}
		})
	if len(handled) != 1 || handled[0] != IRQTimer {
		t.Fatalf("handled = %v", handled)
	}
	// Quantum is 2000 cycles (~3.75us); the IRQ at 1ns must land well
	// before the 100k-cycle loop ends.
	if handledAt > sim.Microseconds(10) {
		t.Fatalf("IRQ delivered at %v us — quantum bound broken", handledAt.Microseconds())
	}
}

func TestInterruptWakesWaitingCore(t *testing.T) {
	var handledAt sim.Time
	testCore(t, DefaultConfig(),
		func(c *Core, b *fakeBus) {
			c.SetIRQHandler(func(c *Core, irq IRQ) { handledAt = c.Now() })
			c.Proc().Engine().At(5_000_000, func() { c.PostInterrupt(IRQIPI) })
		},
		func(c *Core, b *fakeBus) {
			c.Proc().Wait() // idle: the IPI must wake us
		})
	if handledAt < 5_000_000 {
		t.Fatalf("handled at %d, want >= 5000000", handledAt)
	}
}

func TestInterruptsDisabledDefersDelivery(t *testing.T) {
	order := []string{}
	testCore(t, DefaultConfig(),
		func(c *Core, b *fakeBus) {
			c.SetIRQHandler(func(c *Core, irq IRQ) { order = append(order, "irq") })
		},
		func(c *Core, b *fakeBus) {
			c.SetInterruptsEnabled(false)
			c.PostInterrupt(IRQTimer)
			c.Cycles(100)
			c.Sync()
			order = append(order, "critical")
			c.SetInterruptsEnabled(true)
			c.Cycles(1)
			c.Sync()
		})
	if len(order) != 2 || order[0] != "critical" || order[1] != "irq" {
		t.Fatalf("order = %v", order)
	}
}

func TestNoNestedInterrupts(t *testing.T) {
	depth, maxDepth := 0, 0
	testCore(t, DefaultConfig(),
		func(c *Core, b *fakeBus) {
			c.SetIRQHandler(func(c *Core, irq IRQ) {
				depth++
				if depth > maxDepth {
					maxDepth = depth
				}
				// Posting from inside the handler must not recurse.
				if irq == IRQTimer {
					c.PostInterrupt(IRQIPI)
					c.Cycles(100)
					c.Sync()
				}
				depth--
			})
		},
		func(c *Core, b *fakeBus) {
			c.PostInterrupt(IRQTimer)
			c.Cycles(1)
			c.Sync()
		})
	if maxDepth != 1 {
		t.Fatalf("max handler depth = %d, want 1", maxDepth)
	}
}

func TestTimingAccumulates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 0 // unbounded lookahead for exact accounting
	testCore(t, cfg, nil, func(c *Core, b *fakeBus) {
		identityMap(c, 16, pgtable.Writable|pgtable.WriteThrough)
		start := c.Now()
		c.Load64(0x1000) // cold: one fetch
		afterMiss := c.Now() - start
		wantMiss := b.fetchLat
		if afterMiss != wantMiss {
			t.Errorf("miss latency = %d, want %d", afterMiss, wantMiss)
		}
		start = c.Now()
		c.Load64(0x1000) // L1 hit: 1 cycle
		if got := c.Now() - start; got != cfg.Clock.Cycles(cfg.L1HitCycles) {
			t.Errorf("hit latency = %d", got)
		}
	})
}

func TestL2ReadAllocateServesSecondMissCheaply(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 0
	cfg.L1Size = 64 // 2 lines: force L1 eviction quickly
	cfg.L1Ways = 1
	testCore(t, cfg, nil, func(c *Core, b *fakeBus) {
		identityMap(c, 16, pgtable.Writable|pgtable.WriteThrough)
		c.Load64(0x1000)
		// Evict 0x1000 from the tiny L1 (same set, different tag).
		c.Load64(0x1040)
		fetches := b.fetches
		start := c.Now()
		c.Load64(0x1000) // L1 miss, L2 hit
		if b.fetches != fetches {
			t.Fatal("L2 hit went to memory")
		}
		if got := c.Now() - start; got != cfg.Clock.Cycles(cfg.L2HitCycles) {
			t.Errorf("L2 hit latency = %d", got)
		}
	})
}
