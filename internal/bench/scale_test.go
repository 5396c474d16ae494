package bench

import (
	"testing"

	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// Two chips of a small 2x2x2 grid: 16 cores total, every page home striped
// across both chips. The smallest topology that exercises the inter-chip
// link on every workload.
func twoChipTopo() scc.Config {
	return scc.MultiChip(2, scc.Grid(2, 2, 2))
}

func TestScaleTwoChipReplay(t *testing.T) {
	p := ScaleParams{Model: svm.LazyRelease}
	a := RunScale(twoChipTopo(), p)
	if !a.LaplaceOK {
		t.Errorf("laplace checksum mismatch: %+v", a)
	}
	if !a.FarmOK {
		t.Errorf("task farm sum mismatch: %+v", a)
	}
	if a.Chips != 2 || a.Cores != 16 {
		t.Errorf("topology not as configured: %+v", a)
	}
	// Page homes stripe over both chips, so the SVM traffic must cross the
	// link — a run that never leaves chip 0 is not a multi-chip run.
	if a.LinkCrossings == 0 {
		t.Errorf("no inter-chip link crossings: %+v", a)
	}
	// Same seedless deterministic engine, same topology, same parameters:
	// the replay must be bit-identical, simulated times included.
	b := RunScale(twoChipTopo(), p)
	if a != b {
		t.Errorf("two-chip replay diverged:\n  first  %+v\n  second %+v", a, b)
	}
}

func TestScaleStrongModelTwoChip(t *testing.T) {
	r := RunScale(twoChipTopo(), ScaleParams{Model: svm.Strong})
	if !r.LaplaceOK || !r.FarmOK {
		t.Errorf("strong-model multi-chip run incorrect: %+v", r)
	}
	if r.LinkCrossings == 0 {
		t.Errorf("no inter-chip link crossings: %+v", r)
	}
}

// The acceptance topology: four chips of the paper-shaped 8x8x2 grid, 512
// cores. Laplace and the task farm must complete with exact results, and
// the whole result, simulated times included, must equal the pinned golden
// values. Same-seed replay is covered at 2 chips by TestScaleTwoChipReplay.
func TestScale512Replay(t *testing.T) {
	if testing.Short() {
		t.Skip("512-core scale-out run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("512-core scale-out run skipped under the race detector (covered at 2 chips by TestScaleTwoChipReplay)")
	}
	got := RunScale(scc.MultiChip(4, scc.Grid(8, 8, 2)), ScaleParams{Model: svm.LazyRelease})
	want := ScaleResult{
		Cores:         512,
		Chips:         4,
		LaplaceUS:     585.71624,
		LaplaceOK:     true,
		FarmUS:        12209.601748,
		FarmOK:        true,
		LinkCrossings: 2085010,
	}
	if got != want {
		t.Errorf("512-core run moved:\n  got  %+v\n  want %+v", got, want)
	}
}

// Fig7On must adapt its sweep and its measuring pair to the topology: on a
// 4x4x1 grid the diameter is 6, the paper's 5-hop peer exists, and the
// default x-axis doubles from 2 up to the 16-core total.
func TestFig7OnShape(t *testing.T) {
	topo := scc.Grid(4, 4, 1)
	pts := Fig7On(topo, 40, nil)
	wantCores := []int{2, 4, 8, 16}
	if len(pts) != len(wantCores) {
		t.Fatalf("sweep has %d points, want %d: %+v", len(pts), len(wantCores), pts)
	}
	for i, p := range pts {
		if p.Cores != wantCores[i] {
			t.Errorf("point %d measures %d cores, want %d", i, p.Cores, wantCores[i])
		}
		if p.PollingUS <= 0 || p.IPIUS <= 0 || p.IPINoiseUS <= 0 {
			t.Errorf("cores=%d: non-positive latency %+v", p.Cores, p)
		}
	}
	// The paper's shape: polling cost grows with the number of activated
	// cores; the interrupt-driven path stays flat.
	if pts[len(pts)-1].PollingUS <= pts[0].PollingUS {
		t.Errorf("polling latency did not grow with core count: %+v", pts)
	}
	if pts[len(pts)-1].IPIUS > 2*pts[0].IPIUS {
		t.Errorf("IPI latency not flat across core counts: %+v", pts)
	}
}

// Fig6On spans the topology's own mesh diameter.
func TestFig6OnShape(t *testing.T) {
	topo := scc.Grid(2, 2, 2)
	pts := Fig6On(topo, 40)
	if len(pts) != 3 { // hops 0, 1, 2 on a 2x2 grid
		t.Fatalf("sweep has %d points, want 3: %+v", len(pts), pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PollingUS <= pts[i-1].PollingUS {
			t.Errorf("polling latency not increasing with distance: %+v", pts)
		}
	}
}

// ScaledFig9 doubles the x-axis up to the machine's total core count.
func TestScaledFig9Counts(t *testing.T) {
	cfg := ScaledFig9(scc.MultiChip(4, scc.Grid(8, 8, 2)), 2)
	want := []int{4, 8, 16, 32, 64, 128, 256, 512}
	if len(cfg.CoreCounts) != len(want) {
		t.Fatalf("core counts %v, want %v", cfg.CoreCounts, want)
	}
	for i, n := range cfg.CoreCounts {
		if n != want[i] {
			t.Fatalf("core counts %v, want %v", cfg.CoreCounts, want)
		}
	}
	if err := scc.Validate(cfg.Chip); err != nil {
		t.Fatalf("scaled config does not validate: %v", err)
	}
}
