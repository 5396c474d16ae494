package bench

import "testing"

// The tests here assert the SHAPE criteria from DESIGN.md: who wins, by
// roughly what factor, and where crossovers fall. Absolute simulated times
// are pinned bit for bit elsewhere: Fig 6 and Table 1 by sccbench's golden
// rows, and Fig 9's six paper-chip cells by TestFig9Shape below, since no
// golden row reaches paper-chip iRCCE cheaply. A recalibration of latency
// constants is a declared model change that updates those pins.

func TestFig6Shape(t *testing.T) {
	pts := Fig6(60)
	if len(pts) < 9 {
		t.Fatalf("only %d distances measured", len(pts))
	}
	for i, p := range pts {
		if p.Hops != i {
			t.Fatalf("distances not dense: %v", pts)
		}
		// With two active cores, polling needs one buffer check and beats
		// the interrupt-driven path (Fig 6's visible gap).
		if p.PollingUS >= p.IPIUS {
			t.Errorf("hops=%d: polling (%v) not below IPI (%v)", p.Hops, p.PollingUS, p.IPIUS)
		}
	}
	// Linear growth with a shallow slope: the per-hop increment must be
	// positive and roughly constant.
	first := pts[1].PollingUS - pts[0].PollingUS
	for i := 1; i < len(pts); i++ {
		d := pts[i].PollingUS - pts[i-1].PollingUS
		if d <= 0 {
			t.Errorf("polling latency not increasing at hop %d", i)
		}
		if d > 3*first || d < first/3 {
			t.Errorf("polling slope not roughly linear: steps %v then %v", first, d)
		}
	}
	// Total growth over the full mesh stays modest (the paper's "very low
	// gradient"): less than 2x from 0 to 8 hops.
	if pts[8].PollingUS > 2*pts[0].PollingUS {
		t.Errorf("gradient too steep: %v -> %v", pts[0].PollingUS, pts[8].PollingUS)
	}
}

func TestFig7Shape(t *testing.T) {
	// The paper's whole axis, 2 to 48 cores. At 40 rounds polling climbs
	// strictly (0.400 us at 2 cores to 8.923 us at 48); the -rounds 400
	// curve does not (3.356 us at 16 cores, 3.093 us at 24), for a cause not
	// yet found.
	pts := Fig7(40, nil)
	if len(pts) != 8 || pts[0].Cores != 2 || pts[7].Cores != 48 {
		t.Fatalf("sweep covers %+v, want 2 to 48 cores in eight points", pts)
	}
	p2, p48 := pts[0], pts[7]
	for i, p := range pts {
		// Polling cost grows with the number of activated cores...
		if i > 0 && p.PollingUS <= pts[i-1].PollingUS {
			t.Errorf("polling not increasing: %v us at %d cores, %v us at %d",
				pts[i-1].PollingUS, pts[i-1].Cores, p.PollingUS, p.Cores)
		}
		// ...while the IPI path stays flat (within 20%).
		if p.IPIUS > 1.2*p2.IPIUS || p.IPIUS < 0.8*p2.IPIUS {
			t.Errorf("IPI latency not flat: %v us at 2 cores, %v us at %d", p2.IPIUS, p.IPIUS, p.Cores)
		}
	}
	// Polling grows substantially (checking 47 buffers at ~100 cycles each).
	if p48.PollingUS < 4*p2.PollingUS {
		t.Errorf("polling at 48 cores (%v) should dwarf 2 cores (%v)", p48.PollingUS, p2.PollingUS)
	}
	// Background noise does not disturb it much (paper: "similar level").
	if p48.IPINoiseUS > 1.5*p48.IPIUS {
		t.Errorf("noise inflates IPI latency: %v vs %v", p48.IPINoiseUS, p48.IPIUS)
	}
	// And with many active cores, IPI beats polling — the design's point.
	if p48.IPIUS >= p48.PollingUS {
		t.Errorf("IPI (%v) not below polling (%v) at 48 cores", p48.IPIUS, p48.PollingUS)
	}
}

func TestTable1Shape(t *testing.T) {
	s, l := Table1Both()
	// Allocation is identical across models and large (paper: 741 us).
	if diff := s.AllocUS - l.AllocUS; diff > 1 || diff < -1 {
		t.Errorf("alloc differs across models: %v vs %v", s.AllocUS, l.AllocUS)
	}
	if s.AllocUS < 100 {
		t.Errorf("alloc implausibly cheap: %v us", s.AllocUS)
	}
	// Physical allocation is model-independent and dominates everything.
	if rel := s.PhysAllocUS / l.PhysAllocUS; rel > 1.05 || rel < 0.95 {
		t.Errorf("phys alloc differs across models: %v vs %v", s.PhysAllocUS, l.PhysAllocUS)
	}
	if s.PhysAllocUS < 4*s.MapUS {
		t.Errorf("phys alloc (%v) should dwarf mapping (%v)", s.PhysAllocUS, s.MapUS)
	}
	// Mapping an existing page: strong pays the ownership retrieval on top
	// (paper ratio ~4.2x; demand 2x..8x).
	if ratio := s.MapUS / l.MapUS; ratio < 2 || ratio > 8 {
		t.Errorf("strong/lazy map ratio = %v, want ~4", ratio)
	}
	// Retrieval exists only under the strong model and is close to the
	// strong-map extra cost.
	if s.RetrieveUS <= l.RetrieveUS {
		t.Errorf("strong retrieve (%v) not above lazy no-op (%v)", s.RetrieveUS, l.RetrieveUS)
	}
	if s.RetrieveUS >= s.MapUS {
		t.Errorf("retrieve (%v) should be below map-existing (%v): no scratchpad lookup", s.RetrieveUS, s.MapUS)
	}
	if l.RetrieveUS > 0.5 {
		t.Errorf("lazy re-access should be fault-free, got %v us", l.RetrieveUS)
	}
}

// TestFig9Shape asserts the Laplace figure's ordering at two core counts
// with a reduced iteration count (the per-iteration shape is iteration-
// independent), then pins the six simulated times bit for bit. The full
// sweep lives in cmd/sccbench and EXPERIMENTS.md.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("laplace sweep is expensive")
	}
	cfg := PaperFig9(12) // enough iterations to amortize the baseline's cold L2
	cfg.CoreCounts = []int{8, 48}
	points := Fig9(cfg) // the six simulations fan out over the host pool
	p8, p48 := points[0], points[1]

	// Below the crossover the SVM variants win clearly (WCB vs word-granular
	// write-through).
	if p8.LazyUS >= p8.IRCCEUS || p8.StrongUS >= p8.IRCCEUS {
		t.Errorf("at 8 cores SVM (%v/%v) must beat iRCCE (%v)", p8.StrongUS, p8.LazyUS, p8.IRCCEUS)
	}
	if p8.IRCCEUS < 1.5*p8.LazyUS {
		t.Errorf("at 8 cores the SVM advantage should be pronounced: ircce %v vs lazy %v", p8.IRCCEUS, p8.LazyUS)
	}
	// Past the crossover the baseline's L2-resident working set wins.
	if p48.IRCCEUS >= p48.LazyUS {
		t.Errorf("at 48 cores iRCCE (%v) must beat SVM lazy (%v)", p48.IRCCEUS, p48.LazyUS)
	}
	// Both SVM curves stay close (paper: "nearly identical").
	for _, p := range points {
		if p.StrongUS > 1.3*p.LazyUS {
			t.Errorf("strong (%v) drifts from lazy (%v)", p.StrongUS, p.LazyUS)
		}
	}
	// iRCCE's 8->48 scaling is superlinear (better than 6x for 6x cores).
	if sp := p8.IRCCEUS / p48.IRCCEUS; sp < 6 {
		t.Errorf("iRCCE 8->48 speedup %v not superlinear", sp)
	}
	// The six paper-chip cells, bit for bit: the pin on the iRCCE path,
	// which no golden row reaches cheaply.
	want := []Fig9Point{
		{Cores: 8, IRCCEUS: 159294.656192, StrongUS: 60536.494048, LazyUS: 59377.373744},
		{Cores: 48, IRCCEUS: 9927.529052, StrongUS: 12149.75144, LazyUS: 10557.5254},
	}
	for i, p := range points {
		if p != want[i] {
			t.Errorf("cell %d: got %+v, want %+v", i, p, want[i])
		}
	}
}

func TestAblationWCBShape(t *testing.T) {
	with, without := AblationWCB(PaperFig9(3), 8)
	// The write-combine buffer must help substantially — the paper calls
	// it "extremely useful to increase the bandwidth".
	if without < 1.3*with {
		t.Errorf("WCB off (%v) not clearly slower than on (%v)", without, with)
	}
}

func TestAblationScratchpadShape(t *testing.T) {
	mpb, offDie := AblationScratchpad(64)
	// The on-die directory must be the faster choice (that is why the
	// paper accepts its 256 MiB cap).
	if mpb >= offDie {
		t.Errorf("MPB scratchpad (%v) not faster than off-die (%v)", mpb, offDie)
	}
}

func TestAblationMatmulReadOnlyShape(t *testing.T) {
	writable, protected := AblationMatmulReadOnly(48, 4)
	if protected >= writable {
		t.Errorf("protected multiply (%v) not faster than writable (%v)", protected, writable)
	}
}

func TestAblationNextTouchShape(t *testing.T) {
	remote, local := AblationNextTouch(16, 4)
	// After migration the scan hits the local controller: closer, so
	// cheaper (cores 0 and 47 sit 8 hops apart).
	if local >= remote {
		t.Errorf("post-migration scan (%v) not faster than remote (%v)", local, remote)
	}
}

func TestAblationReadOnlyL2Shape(t *testing.T) {
	writable, readonly := AblationReadOnlyL2(16, 4)
	if readonly >= writable {
		t.Errorf("read-only scan (%v) not faster than writable (%v)", readonly, writable)
	}
}

func TestCommSweepShape(t *testing.T) {
	pts := CommSweep(30, []int{32, 512, 8192}, 20)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Latency grows with size; bandwidth grows toward saturation.
	if !(pts[0].LatencyUS < pts[1].LatencyUS && pts[1].LatencyUS < pts[2].LatencyUS) {
		t.Errorf("latency not increasing: %v", pts)
	}
	if !(pts[0].MBPerSec < pts[1].MBPerSec && pts[1].MBPerSec < pts[2].MBPerSec) {
		t.Errorf("bandwidth not increasing toward saturation: %v", pts)
	}
	// Large transfers amortize the handshake: at least 3x the small-message
	// bandwidth.
	if pts[2].MBPerSec < 3*pts[0].MBPerSec {
		t.Errorf("no amortization: %v MB/s vs %v MB/s", pts[2].MBPerSec, pts[0].MBPerSec)
	}
}

// TestExperimentsDeterministic enforces DESIGN.md's reproducibility promise
// for all four experiment harnesses: running any of them twice must yield
// bit-identical simulated timestamps.
func TestExperimentsDeterministic(t *testing.T) {
	a := Fig6(20)
	b := Fig6(20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Fig6 nondeterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}

	f7a := Fig7(20, []int{2, 16})
	f7b := Fig7(20, []int{2, 16})
	for i := range f7a {
		if f7a[i] != f7b[i] {
			t.Fatalf("Fig7 nondeterministic at %d: %+v vs %+v", i, f7a[i], f7b[i])
		}
	}

	s1, _ := Table1Both()
	s2, _ := Table1Both()
	if s1 != s2 {
		t.Fatalf("Table1 nondeterministic: %+v vs %+v", s1, s2)
	}

	// A reduced Fig9 point per variant: small grid, few iterations, 4 cores.
	cfg := PaperFig9(3)
	cfg.Params.Rows, cfg.Params.Cols = 32, 32
	cfg.CoreCounts = []int{4}
	f9a := Fig9(cfg)
	f9b := Fig9(cfg)
	if f9a[0] != f9b[0] {
		t.Fatalf("Fig9 nondeterministic: %+v vs %+v", f9a[0], f9b[0])
	}
}
