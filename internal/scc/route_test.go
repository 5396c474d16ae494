package scc

import (
	"math/rand"
	"testing"

	"metalsvm/internal/cache"
	"metalsvm/internal/mesh"
	"metalsvm/internal/phys"
	"metalsvm/internal/sim"
)

// meshRoute is the DDR path between a global core and a global controller,
// worked out from the mesh coordinates: XY hops on one chip, else the local
// mesh to the system-interface port, the link, and the remote mesh from
// that port.
func meshRoute(ch *Chip, core, mc int) (hops int, cross bool) {
	m := ch.Mesh()
	perChip, mcPerChip := m.Cores(), m.ControllerCount()
	pos := m.CoordOfCore(core % perChip)
	mcPos := m.MemoryController(mc % mcPerChip)
	if core/perChip == mc/mcPerChip {
		return mesh.Hops(pos, mcPos), false
	}
	port := ch.Config().GICPort
	return mesh.Hops(pos, port) + mesh.Hops(port, mcPos), true
}

// TestHopsCoresMatchesChipArithmetic checks every core pair's HopsCores
// against the route worked out from chip numbers: XY hops between the local
// ids on one chip, else both cores' hops to the system-interface port.
func TestHopsCoresMatchesChipArithmetic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper", PaperSCC()},
		{"8x8x2", Grid(8, 8, 2)},
		{"4x2x2-chips2", MultiChip(2, Grid(4, 2, 2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch, err := New(sim.NewEngine(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, port := ch.Mesh(), ch.Config().GICPort
			perChip := m.Cores()
			for a := 0; a < ch.Cores(); a++ {
				for b := 0; b < ch.Cores(); b++ {
					pa, pb := m.CoordOfCore(a%perChip), m.CoordOfCore(b%perChip)
					wantHops, wantCross := mesh.Hops(pa, pb), false
					if a/perChip != b/perChip {
						wantHops, wantCross = mesh.Hops(pa, port)+mesh.Hops(pb, port), true
					}
					if hops, cross := ch.HopsCores(a, b); hops != wantHops || cross != wantCross {
						t.Fatalf("cores %d, %d: (%d hops, cross %v), want (%d, %v)", a, b, hops, cross, wantHops, wantCross)
					}
				}
			}
		})
	}
}

// TestRouteTableMatchesMeshArithmetic checks every (core, controller) pair's
// tabulated route against the mesh arithmetic, and that a DDR read over it
// counts its hops, its link crossing and its mesh share accordingly.
func TestRouteTableMatchesMeshArithmetic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper", PaperSCC()},
		{"2x2x2-chips2", MultiChip(2, Grid(2, 2, 2))},
		{"8x8x2-chips2", MultiChip(2, Grid(8, 8, 2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch, err := New(sim.NewEngine(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mcs := ch.Chips() * ch.Mesh().ControllerCount()
			crossed := 0
			var line [cache.LineSize]byte
			for mc := 0; mc < mcs; mc++ {
				lo, _ := ch.Layout().SharedChunkFrames(mc)
				addr := ch.Layout().SharedFrameAddr(lo)
				if got := ch.Layout().ControllerOf(addr); got != mc {
					t.Fatalf("controller %d's first shared frame %#x is served by %d", mc, addr, got)
				}
				for core := 0; core < ch.Cores(); core++ {
					wantHops, wantCross := meshRoute(ch, core, mc)
					if hops, cross := ch.hopsToController(core, mc); hops != wantHops || cross != wantCross {
						t.Fatalf("core %d to controller %d: table (%d hops, cross %v), mesh (%d, %v)",
							core, mc, hops, cross, wantHops, wantCross)
					}
					before := ch.MeshStats()
					ch.FetchLine(core, addr, line[:])
					after := ch.MeshStats()
					wantMesh := ch.Mesh().RoundTrip(wantHops)
					var wantCrossings uint64
					if wantCross {
						wantMesh += ch.Link().RoundTrip(phys.CacheLine)
						wantCrossings = 1
						crossed++
					}
					if after.HopSum-before.HopSum != uint64(wantHops) ||
						after.LinkCrossings-before.LinkCrossings != wantCrossings ||
						ch.LastMeshShare(core) != wantMesh {
						t.Fatalf("core %d to controller %d: read counted %d hops, %d crossings, mesh share %d; want %d, %d, %d",
							core, mc, after.HopSum-before.HopSum, after.LinkCrossings-before.LinkCrossings,
							ch.LastMeshShare(core), wantHops, wantCrossings, wantMesh)
					}
				}
			}
			if (ch.Chips() > 1) != (crossed > 0) {
				t.Fatalf("%d chips, %d crossing routes", ch.Chips(), crossed)
			}
		})
	}
}

// TestLineDrainMatchesReadModifyWrite checks WriteMaskedLine against the
// read-modify-write it stands for: full, partial and single-byte masks, into
// written and never-written frames, private and shared, from every core,
// leave memory byte for byte as merging the masked bytes into the old line
// would, at the posted line-write price and one DDR write each.
func TestLineDrainMatchesReadModifyWrite(t *testing.T) {
	_, ch := newChip(t)
	rng := rand.New(rand.NewSource(1))
	lay := ch.Layout()
	clk, mem := ch.Config().Core.Clock, ch.Config().MemClock
	lat := ch.Config().Lat
	full := 0
	for i := 0; i < 2000; i++ {
		core := rng.Intn(ch.Cores())
		var la uint32
		if rng.Intn(2) == 0 {
			la = lay.PrivateBase(rng.Intn(ch.Cores())) + uint32(rng.Intn(64))*cache.LineSize
		} else {
			la = lay.SharedBase() + uint32(rng.Intn(1<<16))*cache.LineSize
		}
		if rng.Intn(2) == 0 { // else the line may sit in a frame never written
			var old [cache.LineSize]byte
			rng.Read(old[:])
			ch.Mem().Write(la, old[:])
		}
		f := cache.Flushed{LineAddr: la}
		rng.Read(f.Data[:])
		switch i % 3 {
		case 0:
			f.Mask = 0xffffffff
		case 1:
			f.Mask = rng.Uint32()
		case 2:
			f.Mask = 1 << rng.Intn(cache.LineSize)
		}
		if f.Full() {
			full++
		}
		var want, got [cache.LineSize]byte
		ch.Mem().Read(la, want[:])
		f.Apply(want[:])

		hops, _ := meshRoute(ch, core, lay.ControllerOf(la))
		wantLat := clk.Cycles(lat.DDRCoreCycles/2) + ch.Mesh().OneWay(hops) + mem.Cycles(lat.DDRWriteMemCycles)
		before := ch.MeshStats().DDRWrites
		d := ch.WriteMaskedLine(core, f)
		ch.Mem().Read(la, got[:])
		if got != want {
			t.Fatalf("drain %d (mask %#x) at %#x left %x, read-modify-write gives %x", i, f.Mask, la, got, want)
		}
		if d != wantLat || ch.MeshStats().DDRWrites != before+1 {
			t.Fatalf("drain %d (mask %#x) from core %d: %d ps and %d DDR writes, want %d ps and 1",
				i, f.Mask, core, d, ch.MeshStats().DDRWrites-before, wantLat)
		}
	}
	if full == 0 || full == 2000 {
		t.Fatalf("%d of 2000 drains were full lines", full)
	}
}
