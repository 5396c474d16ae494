package interchip_test

import (
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/interchip"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// TestLatencyMonotoneInPayload: the charged link latency must be monotone
// (non-decreasing) in payload size for every configuration, including the
// infinite-bandwidth PSPerByte=0 edge, and must match the affine model
// exactly.
func TestLatencyMonotoneInPayload(t *testing.T) {
	configs := []interchip.Config{
		interchip.DefaultConfig(),
		{LatencyPS: 1, PSPerByte: 1},
		{LatencyPS: 500_000, PSPerByte: 0}, // infinite bandwidth: flat latency
		{LatencyPS: 123_456, PSPerByte: 7},
	}
	sizes := []int{0, 1, 2, 7, 8, 31, 32, 64, 4096, 1 << 20}
	for _, cfg := range configs {
		f, err := interchip.New(cfg)
		if err != nil {
			t.Fatalf("config %+v rejected: %v", cfg, err)
		}
		prevOne, prevRT := f.OneWay(sizes[0]), f.RoundTrip(sizes[0])
		for _, b := range sizes {
			one, rt := f.OneWay(b), f.RoundTrip(b)
			if one < prevOne || rt < prevRT {
				t.Errorf("cfg %+v: latency not monotone at %d bytes (%v < %v or %v < %v)",
					cfg, b, one, prevOne, rt, prevRT)
			}
			wantOne := cfg.LatencyPS + cfg.PSPerByte*uint64(b)
			wantRT := 2*cfg.LatencyPS + cfg.PSPerByte*uint64(b)
			if uint64(one) != wantOne || uint64(rt) != wantRT {
				t.Errorf("cfg %+v at %d bytes: OneWay=%v RoundTrip=%v, want %d/%d",
					cfg, b, one, rt, wantOne, wantRT)
			}
			prevOne, prevRT = one, rt
		}
		// The bandwidth term never applies to the request header: an empty
		// round trip is exactly two empty crossings.
		if f.RoundTrip(0) != 2*f.OneWay(0) {
			t.Errorf("cfg %+v: RoundTrip(0)=%v != 2*OneWay(0)=%v",
				cfg, f.RoundTrip(0), 2*f.OneWay(0))
		}
	}
}

// TestValidateRejectsFreeCrossing: a zero fixed latency would put a remote
// chip as near as the local system-interface port and must be rejected; zero
// bandwidth cost is fine.
func TestValidateRejectsFreeCrossing(t *testing.T) {
	if _, err := interchip.New(interchip.Config{LatencyPS: 0, PSPerByte: 62}); err == nil {
		t.Error("zero-latency link accepted")
	}
	if err := interchip.Validate(interchip.Config{LatencyPS: 1, PSPerByte: 0}); err != nil {
		t.Errorf("zero PSPerByte rejected: %v", err)
	}
}

// TestIntraChipChargesNoLink: a single-chip machine must record zero link
// crossings over full workloads, while the same grid doubled across two
// chips must cross the link — the link charge is strictly a chip-boundary
// property, never an intra-chip one.
func TestIntraChipChargesNoLink(t *testing.T) {
	p := bench.ScaleParams{Model: svm.LazyRelease}
	one := bench.RunScale(scc.Grid(2, 2, 2), p)
	if one.Chips != 1 || one.LinkCrossings != 0 {
		t.Errorf("single-chip run crossed the link: %+v", one)
	}
	two := bench.RunScale(scc.MultiChip(2, scc.Grid(2, 2, 2)), p)
	if two.Chips != 2 || two.LinkCrossings == 0 {
		t.Errorf("two-chip run never crossed the link: %+v", two)
	}
}

// TestFaultsDisabledPathBitIdentical: a present-but-empty faults.Config (the
// injector wired in, every probability zero, no partitions, hardening off so
// the protocol itself is unchanged) must replay the cross-chip workload
// bit-identically to a run with no injector at all — the disabled decision
// path consumes no randomness and charges no time on the link either.
func TestFaultsDisabledPathBitIdentical(t *testing.T) {
	topo := scc.MultiChip(2, scc.Grid(2, 2, 2)).Normalized()
	members := core.AllCores(topo)
	lp := laplace.Params{Rows: 64, Cols: 32, Iters: 2, TopTemp: 100}
	lcfg := bench.Fig9Config{Params: lp, Chip: topo}

	plain, _ := bench.Fig9Cell(lcfg, svm.Strong, core.Options{Members: members})
	empty, _ := bench.Fig9Cell(lcfg, svm.Strong, core.Options{
		Members: members, Faults: &faults.Config{Seed: 42, NoHarden: true},
	})
	if !plain.Completed || !empty.Completed {
		t.Fatalf("runs did not complete: plain %+v, empty %+v", plain, empty)
	}
	if empty.Faults.Injected() != 0 || empty.Faults.Decisions != 0 {
		t.Fatalf("empty spec drew randomness or injected: %+v", empty.Faults)
	}
	if plain.US != empty.US || plain.Sum != empty.Sum {
		t.Errorf("disabled-faults path diverged: %.6f us/%v vs %.6f us/%v",
			plain.US, plain.Sum, empty.US, empty.Sum)
	}
}
